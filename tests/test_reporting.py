import json
import os
import stat

import numpy as np

from vilenkin_lab.reporting import (
    ExperimentRecord,
    config_hash,
    render_csv,
    render_json,
    write_records,
)
from vilenkin_lab.serialize import save_function
from vilenkin_lab.structure import VilenkinStructure
from vilenkin_lab.transform import Spectrum


def sample_records():
    return [
        ExperimentRecord("demo", {"i": 2}, {"value": 1.0 / 3.0}, "abc123"),
        ExperimentRecord("demo", {"i": 1}, {"value": 0.1}, "abc123"),
    ]


def test_config_hash_stable_under_key_order():
    a = config_hash({"x": 1, "y": [2, 3]})
    b = config_hash({"y": [2, 3], "x": 1})
    assert a == b and len(a) == 16
    assert config_hash({"x": 2, "y": [2, 3]}) != a


def test_csv_header_and_sorting():
    text = render_csv(sample_records())
    lines = text.splitlines()
    assert lines[0] == "# schema=1, config=abc123"
    assert lines[1] == "experiment,i,value,config"
    assert lines[2].startswith("demo,1,")
    assert lines[3].startswith("demo,2,")


def test_float_round_trip_precision():
    text = render_csv(sample_records())
    cell = text.splitlines()[3].split(",")[2]
    assert float(cell) == 1.0 / 3.0
    assert len(cell.replace(".", "").replace("-", "").lstrip("0")) >= 17


def test_render_byte_identical():
    assert render_csv(sample_records()) == render_csv(sample_records())


def test_json_shape():
    payload = json.loads(render_json(sample_records()))
    assert payload["schema"] == 1
    assert payload["config"] == "abc123"
    assert [r["index"]["i"] for r in payload["records"]] == [1, 2]


def test_empty_records_render():
    text = render_csv([])
    assert text.startswith("# schema=1")
    assert render_json([]) == '{\n  "config": "",\n  "records": [],\n  "schema": 1\n}\n'


def test_write_records(tmp_path):
    out = tmp_path / "rows.csv"
    write_records(sample_records(), out, "csv")
    assert out.read_text().startswith("# schema=1")


def test_rewrite_over_a_longer_file_leaves_only_the_new_bytes(tmp_path):
    out = tmp_path / "rows.csv"
    out.write_bytes(b"x" * 10_000)
    write_records(sample_records(), out, "csv")
    assert out.read_bytes() == render_csv(sample_records()).encode("utf-8")


def test_rewrite_keeps_the_inode_its_links_and_its_mode(tmp_path):
    out = tmp_path / "rows.csv"
    out.write_bytes(b"old rows\n" * 500)
    out.chmod(0o640)
    hard = tmp_path / "hard.csv"
    os.link(out, hard)
    soft = tmp_path / "soft.csv"
    soft.symlink_to(out)
    inode = out.stat().st_ino
    write_records(sample_records(), soft, "json")
    want = render_json(sample_records()).encode("utf-8")
    assert out.read_bytes() == hard.read_bytes() == soft.read_bytes() == want
    assert out.stat().st_ino == inode and out.stat().st_nlink == 2
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert soft.is_symlink()


def test_new_file_gets_the_mode_of_open_for_writing(tmp_path):
    with open(tmp_path / "plain.csv", "w"):
        pass
    write_records(sample_records(), tmp_path / "rows.csv", "csv")
    assert (tmp_path / "rows.csv").stat().st_mode == (tmp_path / "plain.csv").stat().st_mode


def test_write_to_a_pipe():
    # as `vilenkin-lab run --out /dev/stdout` into a pipe: nothing to cut
    read_end, write_end = os.pipe()
    with os.fdopen(read_end, "rb") as fh:
        try:
            write_records(sample_records(), f"/dev/fd/{write_end}", "csv")
        finally:
            os.close(write_end)
        assert fh.read() == render_csv(sample_records()).encode("utf-8")


def test_writes_never_truncate_on_open(tmp_path, monkeypatch):
    # O_TRUNC on a file that holds data can stall; the writer cuts the
    # file at the written length instead.
    flags = []
    real_open = os.open

    def spy(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    out = tmp_path / "rows.csv"
    for _ in range(2):
        write_records(sample_records(), out, "csv")
    save_function(Spectrum(VilenkinStructure.from_m((2, 3)), np.arange(6.0)), tmp_path / "f.json")
    assert len(flags) == 3 and not any(flag & os.O_TRUNC for flag in flags)
