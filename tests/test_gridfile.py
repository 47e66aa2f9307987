"""The shared .vgrid / .vcontact grid-file codec: byte-level oracles, every
reader error path, and a save/load/save round-trip property."""
import hashlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import box_grid, by_index, contact_map, make_grid
from handover import suite
from handover.contacts import ContactMap, load_contact_map, predict_contacts_heuristic, save_contact_map
from handover.voxelgeom import VoxelGrid, _parse_header, load_vgrid, read_grid_rows, save_vgrid, write_grid_file


# -- per-cell reference writers (the loops the array codec replaced) ----------


def _oracle_header(magic, grid):
    nx, ny, nz = grid.dims
    return [
        f"{magic} 1",
        f"dims {nx} {ny} {nz}",
        f"voxel_size {repr(float(grid.voxel_size))}",
        "origin " + " ".join(repr(float(v)) for v in grid.origin),
    ]


def oracle_save_vgrid(grid, path):
    nx, ny, nz = grid.dims
    occ = grid.occupancy
    rows = []
    for z in range(nz):
        for y in range(ny):
            rows.append("".join("1" if occ[x, y, z] else "0" for x in range(nx)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(_oracle_header("VGRID", grid) + rows) + "\n")


def oracle_save_contact_map(cm, path):
    nx, ny, nz = cm.grid.dims
    values = by_index(cm.keys, cm.values.tolist())
    binary = all(v in (0.0, 1.0) for v in values.values())
    rows = []
    for z in range(nz):
        for y in range(ny):
            if binary:
                rows.append(
                    "".join("1" if values.get((x, y, z), 0.0) == 1.0 else "0" for x in range(nx))
                )
            else:
                rows.append(
                    " ".join(repr(float(values.get((x, y, z), 0.0))) for x in range(nx))
                )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(_oracle_header("VCONTACT", cm.grid) + rows) + "\n")


@pytest.mark.parametrize("name", suite.OBJECT_NAMES)
def test_bundled_object_files_match_per_cell_oracle(name, tmp_path):
    grid, maps = suite.build_object(name)
    save_vgrid(grid, tmp_path / "a.vgrid")
    oracle_save_vgrid(grid, tmp_path / "b.vgrid")
    assert (tmp_path / "a.vgrid").read_bytes() == (tmp_path / "b.vgrid").read_bytes()
    for cm in maps:
        save_contact_map(cm, tmp_path / "a.vcontact")
        oracle_save_contact_map(cm, tmp_path / "b.vcontact")
        assert (tmp_path / "a.vcontact").read_bytes() == (tmp_path / "b.vcontact").read_bytes()


def oracle_write_grid_file(path, magic, grid, values):
    """The per-row writer the byte-buffer writer replaced: one string per
    row, joined with the header lines."""
    nx, ny, nz = grid.dims
    cells = np.asarray(values).transpose(2, 1, 0)  # [z, y, x], a view
    if np.isin(cells, (0, 1)).all():
        chars = (cells == 1).view(np.uint8) + ord("0")
        rows = [row.tobytes().decode("ascii") for plane in chars for row in plane]
    else:
        # one repr per distinct bit pattern, so -0.0 and 0.0 stay apart
        bits = np.ascontiguousarray(cells, dtype=float).view(np.uint64).ravel()
        keys, inverse = np.unique(bits, return_inverse=True)
        reprs = np.array([repr(v) for v in keys.view(float).tolist()], dtype=object)
        rows = [" ".join(row) for row in reprs[inverse.ravel()].reshape(nz * ny, nx).tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(_oracle_header(magic, grid) + rows) + "\n")


_LONG_REPRS = [1 / 3, 0.1 + 0.2, 5e-324, float(np.nextafter(1.0, 0.0)), 2.2250738585072014e-308, 0.7071067811865476]


def _writer_cases():
    rng = np.random.default_rng(17)
    for dims in [(1, 1, 1), (3, 2, 2), (1, 5, 3), (7, 1, 4), (6, 5, 4)]:
        occ = rng.random(dims) < 0.4
        yield f"bool {dims}", occ
        yield f"float 0/1 {dims}", occ.astype(float)
        yield f"float 0/1 with -0.0 {dims}", np.where(occ, 1.0, rng.choice([0.0, -0.0], size=dims))
        yield f"Fortran-order float 0/1 {dims}", np.asfortranarray(occ.astype(float))
        rows = rng.choice([0.0, -0.0, 1.0, 0.5] + _LONG_REPRS, size=dims)
        yield f"float rows {dims}", rows
        yield f"float rows, transposed view {dims}", np.ascontiguousarray(rows.T).T
    yield "one long repr", np.full((2, 3, 2), 1 / 3)
    yield "a lone -0.0 among ones", np.where(np.arange(12).reshape(2, 3, 2) == 5, -0.0, 1.0)


_WRITER_CASES = dict(_writer_cases())


@pytest.mark.parametrize("magic", ["VGRID", "VCONTACT"])
@pytest.mark.parametrize("name", list(_WRITER_CASES))
def test_writer_matches_the_per_row_writer(name, magic, tmp_path):
    """0/1 rows from bool and float grids (-0.0 writes as 0), float rows
    holding -0.0, 0.0, 1.0 and long reprs, in any memory order: the same
    bytes as the per-row writer."""
    values = _WRITER_CASES[name]
    grid = make_grid(np.ones(values.shape, dtype=bool), voxel_size=1 / 3, origin=(0.1, -0.0, 2.5e-7))
    write_grid_file(tmp_path / "a", magic, grid, values)
    oracle_write_grid_file(tmp_path / "b", magic, grid, values)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
    assert b"\r" not in (tmp_path / "a").read_bytes()  # LF line ends


# sha256 of every file write_suite writes, as the per-object builders wrote them
SUITE_SHA256 = {
    "hammer.scene.json": "5f894c1216cd1b89e71fd81a1e8f446f28cb4243d0c55def982ba007b6b9c849",
    "hammer.vgrid": "f636df582496e8ce2959a54769b34a54f2369ff4d48fc50a2b8fd38ac1b68cd2",
    "hammer_contacts_0.vcontact": "5594cfd40a784e9350c9596f8914e4869fc0d8b57e570793a0b9c512ceebf7e5",
    "hammer_contacts_1.vcontact": "74e3dc708802389b4e8f602a7d80651cafd40718853ab708ea9017421267c084",
    "hammer_contacts_2.vcontact": "fa69de7ebc2c1aa03b19a8c49ee0b25054bcc900f76ff98e69e71d2e7d67ab07",
    "knife.scene.json": "0819d918f455f937369491e051f03e98b8c6780446915f27482e5a62452aa1e1",
    "knife.vgrid": "0948c42d446f9d150cba30e3361a838e1271da8050f9f4c481e3df24fb9c2b26",
    "knife_contacts_0.vcontact": "ea3423c11cf0642319502ea3582a54f42e0bd938c5219c60746f514ef98282b0",
    "knife_contacts_1.vcontact": "a744dae2f60a97e41220dffa648cd9493cb3dca67f504bca85ea606980357450",
    "knife_contacts_2.vcontact": "abc06e97be2949db3541b43946fe015b7744393fecb6885cf52593102f066e13",
    "mug.scene.json": "2d45fd5f33b183e0138a43aa1c706f2500f902c807fc027a12f1ddbdfe29204b",
    "mug.vgrid": "657b232a135c51f4a7b097092ec96a64da75c9d1bcc4575590a25be12cf2a66f",
    "mug_contacts_0.vcontact": "bc28cf4bcede0f58a2abff30162a4bc10e93c76598e73e3c2047b8fdf0976da6",
    "mug_contacts_1.vcontact": "0b7fb9d65970743886a6a1070fe576ce4b19e5d337cf87ee71da1511935852a0",
    "mug_contacts_2.vcontact": "c3b50b3ebbceae4ce5a079c1e3ae1a2e9fc5ba9ff5f0194435634d1c7dc28d6f",
    "pan.scene.json": "038012bc8f30936fbfb5004bcf9fe184811709a1f51711f16e7080c53707e00f",
    "pan.vgrid": "0e167db864be721037414993ff6c8696eca4e045697a462b4a3da5fc20697052",
    "pan_contacts_0.vcontact": "af7603ac0928a8e189573a7095e4ee7c9f2bf130a71049bcd694428d3497ae80",
    "pan_contacts_1.vcontact": "42b39a14dbfb105de1f57ed45cd650a222a7a97364690a606d53b3ae62a35bc3",
    "pan_contacts_2.vcontact": "97efda3d347235a55829dad023701c5ca4e617feefd8727257995f2a4b04c1d8",
    "rodball.scene.json": "84141651257a0626b79ea9133df0bb9df5899293d36502a7c62f8d800af34582",
    "rodball.vgrid": "4c0bbf83b314c91a72ee71e15479051ee04aa6fb33ade24d02470f708b2966db",
    "rodball_contacts_0.vcontact": "14442daf49a696510ce19788b1abdd29f3dec1c197fd115b9d2e40c20ebbddc9",
    "rodball_contacts_1.vcontact": "01a41465082a1292bba0d387049783ae00ecfd281eaa04eb08230397ca145ded",
    "rodball_contacts_2.vcontact": "86b1f814848c2efd8c96b2d47fdae9885635c1f927eff5327c5a71c2a28e5d20",
}


def test_bundled_suite_files_are_pinned(tmp_path):
    """The bundled objects, maps and scenes never change, byte for byte."""
    suite.write_suite(tmp_path)
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == SUITE_SHA256


def test_float_map_matches_per_cell_oracle(tmp_path):
    grid, _ = suite.build_object("mug")
    cm = predict_contacts_heuristic(grid)
    save_contact_map(cm, tmp_path / "a.vcontact")
    oracle_save_contact_map(cm, tmp_path / "b.vcontact")
    text = (tmp_path / "a.vcontact").read_text()
    assert " " in text.splitlines()[4]  # float rows, not 0/1 rows
    assert text == (tmp_path / "b.vcontact").read_text()


# -- reader error paths ---------------------------------------------------------

# 3 x 2 x 2 grid, cells (0..1, 0..1, 0..1) occupied; header line numbers 1-4,
# data rows on lines 5-8 ordered (y, z) = (0, 0), (1, 0), (0, 1), (1, 1)
_GRID = box_grid((3, 2, 2), (0, 0, 0), (1, 1, 1), voxel_size=0.5, origin=(1.0, -2.0, 0.25))
_HEADER = ["dims 3 2 2", "voxel_size 0.5", "origin 1.0 -2.0 0.25"]
_ROWS = ["110", "110", "110", "110"]


def _lines(magic, header=_HEADER, rows=_ROWS):
    return [f"{magic} 1", *header, *rows]


def _with(field, value):
    """The header with one field's tokens replaced."""
    return [f"{field} {value}" if h.split()[0] == field else h for h in _HEADER]


_BOTH = ("VGRID", "VCONTACT")
_ERRORS = [
    # (magic, file lines, message pattern)
    *[(m, ["NOPE 1", *_HEADER, *_ROWS], f"expected '{m} 1' header") for m in _BOTH],
    ("VCONTACT", _lines("VGRID"), "expected 'VCONTACT 1' header"),
    *[(m, [f"{m} 1", "dims 3 2 2"], "truncated header") for m in _BOTH],
    *[(m, _lines(m, header=["dims 3 2 2", "size 0.5", "origin 1.0 -2.0 0.25"]),
       "line 3: expected 'voxel_size'") for m in _BOTH],
    *[(m, _lines(m, header=_with(f, v)), f"line {n}: {f} must be")
      for m in _BOTH
      for f, n, v in [
          ("dims", 2, "3 x 2"), ("dims", 2, "3 2"), ("dims", 2, "3 2 2 1"), ("dims", 2, "3 0 2"),
          ("dims", 2, "3 2.0 2"), ("voxel_size", 3, "inf"), ("voxel_size", 3, "nan"),
          ("voxel_size", 3, "0"), ("voxel_size", 3, "-0.5"), ("voxel_size", 3, ""),
          ("voxel_size", 3, "0.5 0.5"), ("origin", 4, "nan 0.0 0.0"), ("origin", 4, "0 -inf 0"),
          ("origin", 4, "0 0"), ("origin", 4, "0 0 zero"),
      ]],
    *[(m, _lines(m, rows=rows), f"expected 4 data rows, found {len(rows)}")
      for m in _BOTH for rows in (_ROWS[:3], _ROWS + ["000"])],
    *[(m, _lines(m, rows=["110", row, "110", "110"]), "line 6: expected 3 characters of 0/1")
      for m, row in [("VGRID", "1100"), ("VGRID", "11"), ("VGRID", "1a0"), ("VGRID", ""),
                     ("VGRID", "1.0 1.0 0.0")]],
    ("VCONTACT", _lines("VCONTACT", rows=["110", "1.0 0.5", "110", "110"]),
     "line 6: expected 3 values, found 2"),
    ("VCONTACT", _lines("VCONTACT", rows=["110", "1100", "110", "110"]),
     "line 6: expected 3 values, found 1"),
    ("VCONTACT", _lines("VCONTACT", rows=["110", "110", "1.0 abc 0.0", "110"]),
     "line 7: could not convert string to float: 'abc'"),
    *[("VCONTACT", _lines("VCONTACT", rows=["110", "110", "110", f"1.0 {v} 0.0"]),
       r"line 8: values must be finite and in \[0, 1\]")
      for v in ("inf", "-inf", "nan", "1.5", "-0.25", "1e400")],
    # rows of the 0/1 length holding a digit above 1
    ("VGRID", _lines("VGRID", rows=["110", "120", "110", "110"]), "line 6: expected 3 characters of 0/1"),
    ("VCONTACT", _lines("VCONTACT", rows=["110", "120", "110", "110"]), "line 6: expected 3 values, found 1"),
]


@pytest.mark.parametrize("magic,lines,message", _ERRORS)
def test_reader_rejects_malformed_file_naming_file_and_field(magic, lines, message, tmp_path):
    path = tmp_path / ("bad.vgrid" if magic == "VGRID" else "bad.vcontact")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message) as err:
        if magic == "VGRID":
            load_vgrid(path)
        else:
            load_contact_map(path, _GRID)
    assert str(err.value).startswith(f"{path}: ")


def read_grid_file(path, magic, floats=False):
    """read_grid_rows, the values as one float array indexed [x, y, z]."""
    dims, voxel_size, origin, rows = read_grid_rows(path, magic, floats)
    return dims, voxel_size, origin, rows.astype(float, copy=False).reshape(dims[::-1]).T


def oracle_read_grid_file(path, magic, floats=False):
    """The per-row reader: the lines of str.splitlines, then each row on its
    own, 0/1 characters or (with floats) space-separated numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    dims, voxel_size, origin = _parse_header(lines, path, magic)
    nx, ny, nz = dims
    if len(lines) - 4 != nz * ny:
        raise ValueError(f"{path}: expected {nz * ny} data rows, found {len(lines) - 4}")
    values = np.zeros((nz * ny, nx))
    for r, row in enumerate(lines[4:]):
        where = f"{path}: line {r + 5}"
        if len(row) == nx and set(row) <= {"0", "1"}:
            values[r] = [float(c) for c in row]
        elif not floats:
            raise ValueError(f"{where}: expected {nx} characters of 0/1")
        else:
            try:
                values_r = np.array(row.split(), dtype=float)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if values_r.shape != (nx,):
                raise ValueError(f"{where}: expected {nx} values, found {values_r.size}")
            if not ((values_r >= 0) & (values_r <= 1)).all():
                raise ValueError(f"{where}: values must be finite and in [0, 1]")
            values[r] = values_r
    return dims, voxel_size, origin, values.reshape(nz, ny, nx).transpose(2, 1, 0)


def _read(reader, path, magic):
    """The reader's result as bytes, or its error message."""
    try:
        dims, voxel_size, origin, values = reader(path, magic, floats=magic == "VCONTACT")
    except ValueError as exc:
        return str(exc)
    return dims, voxel_size, origin.tobytes(), values.dtype, values.shape, values.tobytes()


_FLOATS_FIRST_AND_LAST = ["0.5 0 1", "110", "110", "0 0.25 1.0"]
_TEXTS = {
    "crlf": "\r\n".join(_lines("{m}")) + "\r\n",
    "cr": "\r".join(_lines("{m}")) + "\r",
    "no final newline": "\n".join(_lines("{m}")),
    "crlf, no final newline": "\r\n".join(_lines("{m}")),
    "float rows first and last": "\n".join(_lines("{m}", rows=_FLOATS_FIRST_AND_LAST)) + "\n",
    "float rows first and last, crlf": "\r\n".join(_lines("{m}", rows=_FLOATS_FIRST_AND_LAST)),
    "non-ASCII in a bit row": "\n".join(_lines("{m}", rows=["110", "1\u00e90", "110", "110"])) + "\n",
    "non-ASCII beyond the BMP": "\n".join(_lines("{m}", rows=["110", "110", "11\U0001f600", "110"])) + "\n",
    "a blank last line": "\n".join(_lines("{m}")) + "\n\n",
    # the one-reshape read of an ASCII LF file needs every row dims.x digits long
    "a row one short": "\n".join(_lines("{m}", rows=["110", "11", "110", "110"])) + "\n",
    "a row one long": "\n".join(_lines("{m}", rows=["110", "1101", "110", "110"])) + "\n",
    "a row one short, the next one long": "\n".join(_lines("{m}", rows=["110", "11", "1100", "110"])) + "\n",
    "the last row one long, no final newline": "\n".join(_lines("{m}", rows=["110", "110", "110", "1101"])),
    "a stray newline in a row": "\n".join(_lines("{m}", rows=["110", "1\n0", "110", "110"])) + "\n",
    "a stray newline in a row, one fewer row": "\n".join(_lines("{m}", rows=["110", "1\n0", "110"])) + "\n",
    "non-ASCII in the header": "\n".join(_lines("{m}", header=_with("voxel_size", "0.5\u00a0"))) + "\n",
    "mixed line ends": "\n".join(_lines("{m}")[:3]) + "\r\n" + "\r".join(_lines("{m}")[3:]),
    "empty": "",
    "header only, no final newline": "{m} 1\ndims 3 2 2",
    **{f"break {ch!r} in a row": "\n".join(_lines("{m}", rows=["110", "11" + ch + "0", "110"])) + "\n"
       for ch in ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")},
    # the break ends the last row and LF ends one more, blank, line
    **{f"break {ch!r} ending the last row, then a blank line": "\n".join(_lines("{m}")) + ch + "\n"
       for ch in ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")},
    **{f"break {ch!r} ending the header": "\n".join(_lines("{m}")[:3]) + ch + "\n".join(_lines("{m}")[3:])
       for ch in ("\f", "\x85")},
}


@pytest.mark.parametrize("magic", _BOTH)
@pytest.mark.parametrize("name", list(_TEXTS))
def test_reader_matches_the_per_row_reader(name, magic, tmp_path):
    """Line ends, a missing final newline, non-ASCII rows and float rows at
    either end give the per-row reader's values or error, byte for byte."""
    path = tmp_path / "g"
    path.write_bytes(_TEXTS[name].replace("{m}", magic).encode("utf-8"))
    got, want = _read(read_grid_file, path, magic), _read(oracle_read_grid_file, path, magic)
    assert got == want
    if magic == "VGRID":  # load_vgrid reads the digits themselves
        try:
            grid = load_vgrid(path)
        except ValueError as exc:
            assert str(exc) == want
        else:
            assert (grid.dims, grid.voxel_size, grid.origin.tobytes()) == want[:3]
            assert grid.occupancy.flags.c_contiguous
            assert np.array_equal(grid.occupancy, oracle_read_grid_file(path, magic)[3] == 1)


@pytest.mark.parametrize("magic", _BOTH)
@pytest.mark.parametrize("name,data,line", [
    ("a 0xff byte in a row", "\n".join(_lines("{m}", rows=["110", "1\xff0", "110", "110"])) + "\n", 6),
    ("a lone UTF-8 lead byte ending the header", "{m} 1\ndims 3 2 2\xc3\nvoxel_size 0.5\n", 2),
    ("a 0xfe byte after CR line ends", "\r".join(_lines("{m}")).replace("110", "1\xfe0", 1), 5),
])
def test_reader_names_the_file_and_line_of_a_byte_that_is_not_utf8(magic, name, data, line, tmp_path):
    path = tmp_path / "bad.grid"
    path.write_bytes(data.replace("{m}", magic).encode("latin-1"))
    with pytest.raises(ValueError) as err:
        read_grid_file(path, magic)
    assert str(err.value) == f"{path}: line {line}: not UTF-8 text"


@pytest.mark.parametrize("field,value", [
    ("dims", "3 2 3"),
    ("voxel_size", "0.25"),
    ("origin", "1.0 -2.0 0.5"),
])
def test_contact_header_must_match_the_grid(field, value, tmp_path):
    path = tmp_path / "m.vcontact"
    rows = _ROWS + ["110", "110"] if field == "dims" else _ROWS
    path.write_text("\n".join(_lines("VCONTACT", header=_with(field, value), rows=rows)) + "\n")
    with pytest.raises(ValueError, match=f"{field} .* does not match grid {field}"):
        load_contact_map(path, _GRID)


def test_contact_file_may_mix_bit_rows_and_float_rows(tmp_path):
    path = tmp_path / "m.vcontact"
    rows = ["100", "0.0 0.25 0", "0 0 0", "011"]
    path.write_text("\n".join(_lines("VCONTACT", rows=rows)) + "\n")
    cm = load_contact_map(path, _GRID)
    # (1, 1, 1) is on the surface; (2, 1, 1) is empty and snaps to (1, 1, 1)
    values = by_index(cm.keys, cm.values.tolist())
    assert list(values.items()) == [((0, 0, 0), 1.0), ((1, 1, 0), 0.25), ((1, 1, 1), 1.0)]


@pytest.mark.parametrize("key", [(-1, 0, 0), (3, 0, 0), (0, 0, 2)])
def test_saving_a_key_outside_the_grid_is_an_error(key, tmp_path):
    with pytest.raises(ValueError, match="outside its grid"):
        save_contact_map(contact_map(_GRID, {(0, 0, 0): 1.0, key: 1.0}), tmp_path / "m.vcontact")


def test_a_repeated_contact_key_is_an_error():
    """A dict cannot repeat a key, but a key array can; the repeat would
    count its weight twice."""
    keys = np.array([[1, 1, 0], [0, 0, 0], [1, 1, 0]])
    with pytest.raises(ValueError, match=re.escape("contact map key (1, 1, 0) repeats")):
        ContactMap(_GRID, keys, [1.0, 0.5, 0.25])


@pytest.mark.parametrize("keys", [np.zeros((2, 2), dtype=int), np.zeros(6, dtype=int), np.zeros((2, 3)),
                                  np.zeros((3, 3), dtype=int)])
def test_contact_keys_must_be_an_integer_index_per_value(keys):
    with pytest.raises(ValueError, match=re.escape("contact map needs (n, 3) integer keys for its n values")):
        ContactMap(_GRID, keys, [1.0, 1.0])


def test_contact_map_sorts_its_keys_and_keeps_zero_values():
    cm = ContactMap(_GRID, np.array([[1, 1, 1], [0, 0, 0], [1, 0, 0]]), [0.5, 0.0, 1.0])
    assert cm.keys.tolist() == [[0, 0, 0], [1, 0, 0], [1, 1, 1]] and cm.values.tolist() == [0.0, 1.0, 0.5]
    with pytest.raises(ValueError, match="read-only"):
        cm.values[0] = 2.0  # would dodge the [0, 1] check


@pytest.mark.parametrize("kwargs,message", [
    ({"voxel_size": float("inf")}, "voxel_size"),
    ({"voxel_size": float("nan")}, "voxel_size"),
    ({"origin": (0.0, float("nan"), 0.0)}, "origin"),
    ({"origin": (float("-inf"), 0.0, 0.0)}, "origin"),
])
def test_voxel_grid_rejects_non_finite_geometry(kwargs, message):
    base = {"dims": (1, 1, 1), "voxel_size": 0.1, "origin": (0.0, 0.0, 0.0),
            "occupancy": np.ones((1, 1, 1), dtype=bool)}
    with pytest.raises(ValueError, match=message):
        VoxelGrid(**{**base, **kwargs})


def test_voxel_grid_holds_a_read_only_copy_of_its_origin():
    """A caller's origin array cannot move the grid, nor split its cached centers from it."""
    origin = np.zeros(3)
    grid = VoxelGrid((3, 3, 3), 1.0, origin, np.ones((3, 3, 3), dtype=bool))
    centers = grid.occupied_centers.copy()
    origin[0] = 5.0
    assert grid.origin.tolist() == [0.0, 0.0, 0.0]
    assert grid.centers([[0, 0, 0]]).tolist() == [[0.5, 0.5, 0.5]]
    assert np.array_equal(grid.occupied_centers, centers)
    with pytest.raises(ValueError, match="read-only"):
        grid.origin[0] = 5.0


# -- round-trip property ----------------------------------------------------------


@st.composite
def grids_and_maps(draw):
    dims = tuple(draw(st.integers(1, 4)) for _ in range(3))
    occ = np.array(draw(st.lists(st.booleans(), min_size=int(np.prod(dims)),
                                 max_size=int(np.prod(dims)))), dtype=bool).reshape(dims)
    occ.flat[draw(st.integers(0, occ.size - 1))] = True
    finite = st.floats(-10.0, 10.0, allow_subnormal=False)
    grid = make_grid(occ, voxel_size=draw(st.floats(1e-4, 1.0)),
                     origin=tuple(draw(finite) for _ in range(3)))
    value = st.just(1.0) if draw(st.booleans()) else st.floats(0.0, 1.0)
    surface = list(map(tuple, grid.surface.tolist()))
    values = {idx: draw(value) for idx in surface}
    values = {idx: v for idx, v in values.items() if v != 0.0} or {surface[0]: 1.0}
    return grid, contact_map(grid, values)


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(grids_and_maps())
def test_save_load_save_is_exact(tmp_path, grid_and_map):
    grid, cm = grid_and_map
    a, b = tmp_path / "a", tmp_path / "b"
    save_vgrid(grid, a)
    loaded = load_vgrid(a)
    assert loaded.dims == grid.dims and loaded.voxel_size == grid.voxel_size
    assert np.array_equal(loaded.origin, grid.origin)
    assert np.array_equal(loaded.occupancy, grid.occupancy)
    save_vgrid(loaded, b)
    assert a.read_bytes() == b.read_bytes()

    save_contact_map(cm, a)
    loaded_cm = load_contact_map(a, loaded)
    assert list(by_index(loaded_cm.keys, loaded_cm.values.tolist()).items()) == \
        list(by_index(cm.keys, cm.values.tolist()).items())
    save_contact_map(loaded_cm, b)
    assert a.read_bytes() == b.read_bytes()
