"""Grid meshing and deterministic OBJ export."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from _oracles import obj_reference_text
from ribaucour import cli
from ribaucour import mesh as mesh_module
from ribaucour.duality import evaluate_pair, make_dual
from ribaucour.grids import Domain
from ribaucour.mesh import (SurfaceMesh, export_obj, mesh_from_fields,
                            mesh_from_grid)
from ribaucour.ribaucour_core import evaluate_patch, make_patch

GOLDEN = """\
# surface mesh: 4 vertices, 2 faces
v 0 0 0
v 0 1 0
v 1 0 0
v 1 1 0.25
vn 0 0 1
vn 0 0 1
vn 0 0 1
vn 0 0 1
f 1 3 4
f 1 4 2
"""


def _flat_grid(nu, nv):
    U, V = np.meshgrid(np.arange(nu, dtype=float),
                       np.arange(nv, dtype=float), indexing="ij")
    P = np.stack([U, V, np.zeros_like(U)], axis=-1)
    N = np.zeros_like(P)
    N[..., 2] = 1.0
    return P, N


def test_golden_two_by_two_export(tmp_path):
    P, N = _flat_grid(2, 2)
    P[1, 1, 2] = 0.25
    P[0, 0, 0] = -0.0          # negative zero must print as plain 0
    mesh = mesh_from_grid(P, N)
    assert mesh.n_vertices == 4
    assert mesh.n_quads == 1
    assert mesh.quads.tolist() == [[0, 2, 3, 1]]
    out = tmp_path / "plane.obj"
    export_obj(mesh, out)
    assert out.read_text(encoding="ascii") == GOLDEN


def test_dropped_node_removes_incident_quads():
    P, N = _flat_grid(4, 4)
    valid = np.ones((4, 4), dtype=bool)
    valid[1, 1] = False
    mesh = mesh_from_grid(P, N, valid)
    assert mesh.n_vertices == 15
    assert mesh.n_quads == 5          # 9 cells minus the 4 touching (1,1)
    assert np.array_equal(mesh.mask, ~valid)
    # surviving vertices keep row-major order with the dropped node gone
    expect = [p for (i, j, p) in
              ((i, j, P[i, j]) for i in range(4) for j in range(4))
              if (i, j) != (1, 1)]
    assert np.array_equal(mesh.vertices, np.asarray(expect))


def test_non_finite_nodes_are_dropped_automatically():
    P, N = _flat_grid(3, 3)
    P[0, 2, 1] = np.nan
    mesh = mesh_from_grid(P, N)
    assert mesh.n_vertices == 8
    assert mesh.n_quads == 3
    assert np.all(np.isfinite(mesh.vertices))


def test_empty_mesh_exports_header_only(tmp_path):
    P, N = _flat_grid(3, 3)
    mesh = mesh_from_grid(P, N, np.zeros((3, 3), dtype=bool))
    assert mesh.n_vertices == 0
    assert mesh.n_quads == 0
    out = tmp_path / "empty.obj"
    export_obj(mesh, out)
    assert out.read_text() == "# surface mesh: 0 vertices, 0 faces\n"


def test_mesh_validation_errors():
    P, N = _flat_grid(2, 2)
    good = mesh_from_grid(P, N)
    with pytest.raises(ValueError):
        SurfaceMesh(vertices=good.vertices[:3], normals=good.normals[:3],
                    quads=np.empty((0, 4), int), mask=good.mask)
    with pytest.raises(ValueError):
        SurfaceMesh(vertices=good.vertices, normals=good.normals,
                    quads=np.array([[0, 1, 2, 9]]), mask=good.mask)
    with pytest.raises(ValueError):
        bad = good.vertices.copy()
        bad[0, 0] = np.inf
        SurfaceMesh(vertices=bad, normals=good.normals,
                    quads=good.quads, mask=good.mask)
    with pytest.raises(ValueError):
        SurfaceMesh(vertices=good.vertices, normals=good.normals[:, :2],
                    quads=good.quads, mask=good.mask)
    with pytest.raises(ValueError):
        mesh_from_grid(P[..., :2], N[..., :2])


def test_unit_sphere_mesh(tmp_path):
    fields = evaluate_patch(make_patch("z", "z"), 21, 21)
    mesh = mesh_from_fields(fields)
    assert mesh.n_vertices > 0
    assert mesh.n_quads > 0
    r = np.linalg.norm(mesh.vertices, axis=1)
    assert np.max(np.abs(r - 1.0)) <= 1e-9
    gap = np.linalg.norm(mesh.vertices - mesh.normals, axis=1)
    assert np.max(gap) <= 1e-9
    out = tmp_path / "sphere.obj"
    export_obj(mesh, out)
    text = out.read_text(encoding="ascii")
    lines = text.splitlines()
    assert lines[0] == ("# surface mesh: %d vertices, %d faces"
                       % (mesh.n_vertices, 2 * mesh.n_quads))
    assert sum(1 for l in lines if l.startswith("v ")) == mesh.n_vertices
    assert sum(1 for l in lines if l.startswith("vn ")) == mesh.n_vertices
    assert sum(1 for l in lines if l.startswith("f ")) == 2 * mesh.n_quads
    # face indices are 1-based and in range
    for l in lines:
        if l.startswith("f "):
            idx = [int(t) for t in l.split()[1:]]
            assert all(1 <= i <= mesh.n_vertices for i in idx)


def test_export_is_byte_deterministic(tmp_path):
    fields = evaluate_patch(make_patch("z", "exp(z)"), 15, 15)
    mesh = mesh_from_fields(fields)
    p1, p2 = tmp_path / "a.obj", tmp_path / "b.obj"
    export_obj(mesh, p1)
    export_obj(mesh_from_fields(evaluate_patch(make_patch("z", "exp(z)"),
                                               15, 15)), p2)
    assert p1.read_bytes() == p2.read_bytes()


# coordinates that stress "%.9g": signed zeros, subnormals, the ends of
# the double range, integral values, and arbitrary finite doubles
_COORD = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e300, -1e300, 1.7976931348623157e308, 1.0, -3.0,
                     12345678.0, 1e9, 0.1, 1.0000000005]),
    st.integers(-10**12, 10**12).map(float),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _meshes(draw):
    nu, nv = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    P = draw(hnp.arrays(float, (nu, nv, 3), elements=_COORD))
    N = draw(hnp.arrays(float, (nu, nv, 3), elements=_COORD))
    valid = draw(hnp.arrays(bool, (nu, nv)))
    return mesh_from_grid(P, N, valid)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_meshes())
def test_export_matches_record_by_record_writer(tmp_path_factory, mesh):
    # masked nodes and meshes without quads come from the random mask
    out = tmp_path_factory.mktemp("obj") / "m.obj"
    export_obj(mesh, out)
    assert out.read_bytes() == obj_reference_text(mesh).encode("ascii")


def test_cli_objs_match_record_by_record_writer(tmp_path):
    pair = ["--f1=exp(z)/(1+z^2)", "--f2=sin(z)*cos(z)/(z+3)",
            "--domain=0.1:0.9:0.1:0.9", "--nu=41", "--nv=41"]
    mesh = mesh_from_fields(evaluate_patch(
        make_patch("exp(z)/(1+z^2)", "sin(z)*cos(z)/(z+3)",
                   Domain(0.1, 0.9, 0.1, 0.9)), 41, 41))
    assert mesh.n_vertices == 41 * 41
    expect = obj_reference_text(mesh).encode("ascii")
    for command in ("build", "export"):
        out = tmp_path / f"{command}.obj"
        cli.main([command, *pair, f"--out={out}"])
        assert out.read_bytes() == expect, command


# ---------------------------------------------------------------------------
# the numpy byte builder against the record-by-record writer
# ---------------------------------------------------------------------------

def _strip_mesh(nu, nv, coords):
    """A (nu, nv) grid whose vertex and normal coordinates cycle through
    ``coords``."""
    n = nu * nv * 3
    values = np.resize(np.asarray(coords, dtype=float), 2 * n)
    P = values[:n].reshape(nu, nv, 3)
    N = values[n:][::-1].reshape(nu, nv, 3)
    return mesh_from_grid(P, N)


def _assert_matches_reference(mesh, tmp_path):
    out = tmp_path / "m.obj"
    export_obj(mesh, out)
    assert out.read_bytes() == obj_reference_text(mesh).encode("ascii")


def test_export_spans_several_chunks(tmp_path):
    # more vertices and triangles than one chunk, a partial last chunk
    rng = np.random.default_rng(7)
    nv = mesh_module._CHUNK + 1
    coords = rng.standard_normal(6 * nv) * 10.0 ** rng.integers(-6, 10,
                                                                6 * nv)
    mesh = _strip_mesh(3, nv, coords)
    assert mesh.n_vertices % mesh_module._CHUNK
    assert mesh.n_vertices > mesh_module._CHUNK
    assert 2 * mesh.n_quads > mesh_module._CHUNK
    _assert_matches_reference(mesh, tmp_path)


@pytest.mark.parametrize("shape", [(3, 3), (2, 5), (3, 33333), (2, 50000)])
def test_face_indices_cross_digit_widths(tmp_path, shape):
    # 9 -> 10 and 99,999 -> 100,000 vertices: the last face index gains
    # a digit, and every quad of the grid survives
    mesh = _strip_mesh(*shape, [0.5, -1.25, 3.0])
    assert mesh.quads.max() + 1 == mesh.n_vertices
    _assert_matches_reference(mesh, tmp_path)


def test_near_ties_and_exponent_boundaries(tmp_path):
    # (k + 1/2) 1e-9 sit on rounding ties of the ninth digit at several
    # exponents; the rest sit where %g switches to exponent notation or
    # where rounding carries into a new decade
    k = np.arange(-600, 600)
    coords = np.concatenate([
        (k + 0.5) * 1e-9,
        (k + 0.5) * 1e-9 + 0.1,
        (100000000 + k + 0.5) * 1e-4,
        [9.999999995e-5, 1e-4, 999999999.4, 999999999.5, 1e9,
         -9.999999995e-5, -1e-4, -999999999.4, -999999999.5, -1e9,
         9.9999999949e-5, 99999.99995, 0.99999999949, 0.999999999501,
         -0.0, 0.0, 5e-324, 1e-5, 123456789.0, 100000000.0]])
    _assert_matches_reference(_strip_mesh(2, len(coords) // 3 + 1, coords),
                              tmp_path)


def test_negative_zero_empty_and_quadless_meshes(tmp_path):
    P, N = _flat_grid(3, 3)
    P[...] = -0.0
    _assert_matches_reference(mesh_from_grid(P, N), tmp_path)
    # no survivor, then survivors that share no whole cell
    _assert_matches_reference(mesh_from_grid(P, N, np.zeros((3, 3), bool)),
                              tmp_path)
    checker = (np.add.outer(np.arange(3), np.arange(3)) % 2).astype(bool)
    mesh = mesh_from_grid(P + 0.75, N, checker)
    assert mesh.n_vertices == 4 and mesh.n_quads == 0
    _assert_matches_reference(mesh, tmp_path)


def test_dual_objs_match_record_by_record_writer(tmp_path):
    pair = make_dual(make_patch("exp(z)/(1+z^2)", "sin(z)*cos(z)/(z+3)",
                                Domain(0.1, 0.9, 0.1, 0.9)))
    fields = evaluate_pair(pair, 23, 19)
    out = tmp_path / "pair.obj"
    assert cli.main(["dual", "--f1=exp(z)/(1+z^2)",
                     "--f2=sin(z)*cos(z)/(z+3)", "--domain=0.1:0.9:0.1:0.9",
                     "--nu=23", "--nv=19", f"--out={out}"]) == 0
    for path, f in zip((out, tmp_path / "pair_dual.obj"), fields):
        assert path.read_bytes() == obj_reference_text(
            mesh_from_fields(f)).encode("ascii"), path.name
