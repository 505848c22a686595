"""CLI workflow tests: subcommands, exit codes, config sections."""

import argparse
import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from satpose import load_manifest, load_wireframe, save_wireframe
from satpose.cli import (
    _SECTIONS,
    EXIT_IO,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_SOLVER,
    _cmd_report,
    _section,
    main,
    read_config,
)
from satpose.errors import ManifestError
from satpose.geometry import example_wireframe
from tests.conftest import json_values


@pytest.fixture()
def workspace(tmp_path):
    """A sampled-and-labeled manifest ready for `run`."""
    manifest = tmp_path / "poses.json"
    labeled = tmp_path / "labeled.json"
    assert main(["sample-poses", "--n", "25", "--seed", "3", "--out", str(manifest)]) == EXIT_OK
    assert (
        main(["generate-labels", "--manifest", str(manifest), "--out", str(labeled)]) == EXIT_OK
    )
    return tmp_path, labeled


def test_sample_poses_writes_default_wireframe(tmp_path):
    out = tmp_path / "m.json"
    assert main(["sample-poses", "--n", "5", "--seed", "1", "--out", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert len(data["records"]) == 5
    assert (tmp_path / "wireframe.json").exists()
    assert data["wireframe"] == "wireframe.json"


def test_full_run_zero_noise(workspace):
    tmp_path, labeled = workspace
    report = tmp_path / "report.json"
    code = main(
        ["run", "--manifest", str(labeled), "--provider", "oracle", "--sigma", "0",
         "--out", str(report)]
    )
    assert code == EXIT_OK
    payload = json.loads(report.read_text())
    assert payload["E"] < 1e-6
    assert payload["failures"] == 0
    assert payload["fps"] > 0


def test_run_reports_are_byte_identical_without_timing(workspace):
    tmp_path, labeled = workspace
    reports = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code = main(
            ["run", "--manifest", str(labeled), "--sigma", "1.5", "--noise-seed", "7",
             "--seed", "11", "--no-timing", "--out", str(path)]
        )
        assert code == EXIT_OK
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]


def test_run_csv_columns(workspace):
    tmp_path, labeled = workspace
    report = tmp_path / "report.csv"
    code = main(
        ["run", "--manifest", str(labeled), "--format", "csv", "--out", str(report)]
    )
    assert code == EXIT_OK
    header = report.read_text().splitlines()[0].split(",")
    for column in ("E", "e_q_deg_mean", "e_q_deg_std", "e_t_m_mean", "e_t_m_std", "fps"):
        assert column in header


def test_split_partition_sizes(workspace):
    tmp_path, labeled = workspace
    train, test = tmp_path / "train.json", tmp_path / "test.json"
    code = main(
        ["split", "--manifest", str(labeled), "--train-fraction", "0.8", "--seed", "2",
         "--out-train", str(train), "--out-test", str(test)]
    )
    assert code == EXIT_OK
    n_train = len(json.loads(train.read_text())["records"])
    n_test = len(json.loads(test.read_text())["records"])
    assert n_train == 20 and n_test == 5


def test_triangulate_recovers_wireframe(workspace):
    tmp_path, labeled = workspace
    out = tmp_path / "reconstructed.json"
    code = main(["triangulate", "--manifest", str(labeled), "--name", "rebuilt", "--out", str(out)])
    assert code == EXIT_OK
    rebuilt = load_wireframe(out)
    original = example_wireframe()
    assert rebuilt.name == "rebuilt"
    assert np.max(np.linalg.norm(rebuilt.keypoints - original.keypoints, axis=1)) < 1e-6


def test_report_merge_to_csv(workspace):
    tmp_path, labeled = workspace
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for path, sigma in ((r1, "0"), (r2, "2")):
        assert (
            main(["run", "--manifest", str(labeled), "--sigma", sigma, "--out", str(path)])
            == EXIT_OK
        )
    merged = tmp_path / "merged.csv"
    assert main(["report", str(r1), str(r2), "--format", "csv", "--out", str(merged)]) == EXIT_OK
    lines = merged.read_text().strip().splitlines()
    assert len(lines) == 3  # header + one row per run


def test_schema_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"records": []}')  # no camera
    out = tmp_path / "out.json"
    code = main(["generate-labels", "--manifest", str(bad), "--out", str(out)])
    assert code == EXIT_SCHEMA


def test_non_string_wireframe_is_schema_error(workspace):
    tmp_path, labeled = workspace
    data = json.loads(labeled.read_text())
    data["wireframe"] = 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code = main(["generate-labels", "--manifest", str(bad), "--out", str(tmp_path / "o.json")])
    assert code == EXIT_SCHEMA


# files json.load cannot decode, each with its own exception inside the decoder
UNDECODABLE = {
    "syntax": b"{not json",
    "not-utf8": b'{"E": "\xff\xfe"}',
    "deep": b"[" * 100_000,  # RecursionError in the C decoder
    "huge-int": b"1" * 5000,  # beyond the int-string conversion limit
}

# every JSON reader, called as a library function
READERS = {
    "manifest": load_manifest,
    "config": lambda path: read_config(path, ("roi",)),
    "report": lambda path: _cmd_report(
        argparse.Namespace(reports=[path], format="csv", out=path.parent / "merged.csv")
    ),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("content", sorted(UNDECODABLE))
def test_undecodable_json_is_a_manifest_error(tmp_path, reader, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(UNDECODABLE[content])
    with pytest.raises(ManifestError, match="invalid JSON"):
        READERS[reader](bad)
    assert not (tmp_path / "merged.csv").exists()


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("content", sorted(UNDECODABLE))
def test_undecodable_json_exits_2_writing_nothing(workspace, capsys, reader, content):
    tmp_path, labeled = workspace
    bad, out = tmp_path / "bad.json", tmp_path / "out.json"
    bad.write_bytes(UNDECODABLE[content])
    argv = {
        "manifest": ["run", "--manifest", str(bad)],
        "config": ["run", "--manifest", str(labeled), "--config", str(bad)],
        "report": ["report", str(bad)],
    }[reader]
    assert main([*argv, "--out", str(out)]) == EXIT_SCHEMA
    assert not out.exists()
    assert f"{bad}: invalid JSON" in capsys.readouterr().err


def _wireframe_file(**fields) -> bytes:
    return json.dumps(fields).encode()


_KEYPOINTS = example_wireframe().keypoints.tolist()

# wireframe files the reader refuses, each for its own reason
BAD_WIREFRAMES = {
    "deep": b"[" * 100_000,
    "not-utf8": b'{"name": "\xff\xfe", "keypoints": []}',
    "string-keypoints": _wireframe_file(keypoints=[[str(v) for v in p] for p in _KEYPOINTS]),
    "boolean-keypoints": _wireframe_file(
        keypoints=[[True, False, False], [False, True, False], [False, False, True],
                   [False, False, False]]
    ),
    "three-keypoints": _wireframe_file(keypoints=_KEYPOINTS[:3]),
    "object-name": _wireframe_file(name={"a": 1}, keypoints=_KEYPOINTS),
    "no-keypoints": _wireframe_file(name="model"),
    "top-level-list": json.dumps(_KEYPOINTS).encode(),
}


@pytest.mark.parametrize("content", sorted(BAD_WIREFRAMES))
def test_malformed_wireframe_is_refused(workspace, capsys, content):
    tmp_path, labeled = workspace
    bad, out = tmp_path / "bad.json", tmp_path / "out.json"
    bad.write_bytes(BAD_WIREFRAMES[content])
    with pytest.raises(ManifestError, match=re.escape(str(bad))):
        load_wireframe(bad)
    code = main(["run", "--manifest", str(labeled), "--wireframe", str(bad), "--out", str(out)])
    assert code == EXIT_SCHEMA
    assert not out.exists()
    assert str(bad) in capsys.readouterr().err


def test_failure_rate_exit_code(workspace):
    tmp_path, labeled = workspace
    report = tmp_path / "report.json"
    code = main(
        ["run", "--manifest", str(labeled), "--dropout-rate", "0.55", "--noise-seed", "11",
         "--max-failure-rate", "0.0", "--out", str(report)]
    )
    assert code == EXIT_SOLVER


@pytest.mark.parametrize("rate", ["0.5", "1"])
def test_no_scored_record_is_a_solver_error(workspace, capsys, rate):
    tmp_path, labeled = workspace
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code = main(["run", "--manifest", str(labeled), "--dropout-rate", "1",
                 "--max-failure-rate", rate, "--out", str(out_dir / "r.json")])
    assert code == EXIT_SOLVER
    assert "solver error: no record could be scored (25 failures)" in capsys.readouterr().err
    assert not any(out_dir.iterdir())


def test_infinite_sigma_is_a_schema_error(workspace, capsys):
    tmp_path, labeled = workspace
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code = main(["run", "--manifest", str(labeled), "--sigma", "inf",
                 "--out", str(out_dir / "r.json")])
    assert code == EXIT_SCHEMA
    assert not any(out_dir.iterdir())
    assert "sigma_px must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag"])  # the flag is the rate's one source
@pytest.mark.parametrize("rate, code", [
    ("nan", EXIT_SCHEMA), ("-1", EXIT_SCHEMA), ("1.5", EXIT_SCHEMA), ("inf", EXIT_SCHEMA),
    ("0", EXIT_OK), ("1", EXIT_OK),
])
def test_max_failure_rate_must_lie_in_unit_interval(workspace, source, rate, code):
    tmp_path, labeled = workspace
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    # no record fails at sigma 0, so every rate in [0, 1] passes the gate
    result = main(["run", "--manifest", str(labeled), "--sigma", "0", "--max-failure-rate", rate,
                   "--dump-predictions", str(out_dir / "pred.json"),
                   "--out", str(out_dir / "r.json")])
    assert result == code
    assert any(out_dir.iterdir()) == (code == EXIT_OK)  # a refused rate writes nothing


@pytest.mark.parametrize("n, code", [("-1", EXIT_SCHEMA), ("0", EXIT_SCHEMA), ("1", EXIT_OK)])
def test_sample_count_must_be_positive(tmp_path, n, code):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["sample-poses", "--n", n, "--seed", "1", "--out", str(out_dir / "m.json")]) == code
    assert any(out_dir.iterdir()) == (code == EXIT_OK)


def test_failed_sampling_writes_nothing(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sampler": {"max_rejects": 1, "in_frame_margin": 5000}}))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = ["sample-poses", "--n", "3", "--config", str(cfg), "--out", str(out_dir / "m.json")]
    assert main(argv) == EXIT_SOLVER  # no pose fits in the inset frame
    assert not any(out_dir.iterdir())  # neither the manifest nor the default wireframe file


def test_io_error_exit_code(workspace):
    tmp_path, labeled = workspace
    code = main(
        ["run", "--manifest", str(labeled), "--out", str(tmp_path / "no_dir" / "r.json")]
    )
    assert code == EXIT_IO


def test_config_file_sections_applied(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "camera": {
                    "fx": 2000.0, "fy": 2000.0, "cx": 640.0, "cy": 512.0,
                    "width": 1280, "height": 1024,
                },
                "sampler": {"dist_max": 60.0, "in_frame_margin": 4.0},
            }
        )
    )
    out = tmp_path / "m.json"
    code = main(
        ["sample-poses", "--n", "8", "--seed", "1", "--config", str(cfg), "--out", str(out)]
    )
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["camera"]["fx"] == 2000.0
    assert all(36.0 <= r["t"][2] <= 60.0 for r in data["records"])


def test_invalid_config_section_is_schema_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scene": {"sun_dir": [0, 0, 5], "earth_dir": [1, 0, 0]}}))
    out = tmp_path / "m.json"
    code = main(
        ["sample-poses", "--n", "2", "--seed", "1", "--config", str(cfg), "--out", str(out)]
    )
    assert code == EXIT_SCHEMA


def test_environment_is_not_read(workspace, monkeypatch):
    tmp_path, labeled = workspace

    def outputs() -> tuple[bytes, bytes]:
        run, merged = tmp_path / "r.json", tmp_path / "merged.csv"
        assert main(["run", "--manifest", str(labeled), "--sigma", "2", "--outlier-rate", "0.2",
                     "--no-timing", "--out", str(run)]) == EXIT_OK
        assert main(["report", str(run), "--out", str(merged)]) == EXIT_OK
        return run.read_bytes(), merged.read_bytes()

    plain = outputs()
    monkeypatch.setenv("SATPOSE_SEED", "99")
    monkeypatch.setenv("SATPOSE_FORMAT", "csv")
    assert outputs() == plain
    monkeypatch.setenv("SATPOSE_SEED", "abc")
    monkeypatch.setenv("SATPOSE_MAX_FAILURE_RATE", "x")
    assert outputs() == plain


def test_config_ransac_seed_applies_and_flag_wins(workspace):
    tmp_path, labeled = workspace

    def run(config: dict, *extra) -> bytes:
        cfg = tmp_path / "seed_cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "seed_report.json"
        code = main(
            ["run", "--manifest", str(labeled), "--sigma", "2", "--outlier-rate", "0.2",
             "--noise-seed", "5", "--no-timing", "--config", str(cfg), "--out", str(out), *extra]
        )
        assert code == EXIT_OK
        return out.read_bytes()

    default = run({})
    seeded = run({"ransac": {"seed": 7}})
    assert seeded != default  # the config's seed reaches RANSAC
    assert run({"ransac": {"seed": 0}}) == default  # 0 is the last fallback
    assert run({"ransac": {"seed": 123456}}, "--seed", "7") == seeded


@pytest.mark.parametrize(
    "command, config",
    [
        ("run", '{"lm": {"max_iterations": 2.5}}'),
        ("run", '{"lm": {"max_iterations": Infinity}}'),
        ("run", '{"ransac": {"min_sample": 5.5}}'),
        ("run", '{"ransac": {"max_iterations": 2.5}}'),
        ("sample-poses", '{"sampler": {"max_rejects": 2.5}}'),
    ],
)
def test_non_integer_counts_are_schema_errors(workspace, command, config):
    tmp_path, labeled = workspace
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    args = ["--manifest", str(labeled)] if command == "run" else ["--n", "2"]
    code = main([command, *args, "--config", str(cfg), "--out", str(tmp_path / "o.json")])
    assert code == EXIT_SCHEMA


@pytest.mark.parametrize(
    "config",
    [
        {"ransac": 5},
        {"ransac": [["seed", 7]]},
        {"roi": 5},
        {"noise": "ab"},
        {"panel": {"hinge_axis": [0, 1, 0], "reference_normal": [0, 0, 1]}},
        {"foo": 1},
        {"lm": {"max_iterations": 5}},
        {"roi": {"image_width": 1000}},  # the image size comes from the manifest camera
        {"roi": {"image_width": 5000, "image_height": 5000}},
        # sections `run` does not read
        {"camera": {"fx": 2000.0, "fy": 2000.0, "cx": 640.0, "cy": 512.0,
                    "width": 1280, "height": 1024}},
        {"sampler": {}},
        {"wireframe": "w.json"},
    ],
)
def test_malformed_config_sections_are_schema_errors(workspace, capsys, config):
    tmp_path, labeled = workspace
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    report = tmp_path / "r.json"
    code = main(["run", "--manifest", str(labeled), "--config", str(cfg), "--out", str(report)])
    assert code == EXIT_SCHEMA
    assert not report.exists()
    assert next(iter(config)) in capsys.readouterr().err  # the message names the section


@pytest.mark.parametrize(
    "config",
    [
        {"roi": {"min_side": 224.0}},
        {"ransac": {"seed": 7}},
        {"noise": {}},
        {"wireframe": "w.json"},  # --wireframe is the one source
        {"wireframe": 5},
    ],
)
def test_sample_poses_refuses_sections_it_does_not_read(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "m.json"
    code = main(["sample-poses", "--n", "2", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_SCHEMA
    assert not any(out_dir.iterdir())  # neither the manifest nor wireframe.json
    assert next(iter(config)) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate-labels", "triangulate", "report"])
def test_config_flag_only_on_commands_that_read_it(workspace, command):
    tmp_path, labeled = workspace
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    inputs = [str(labeled)] if command == "report" else ["--manifest", str(labeled)]
    out = tmp_path / "o.json"
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == EXIT_SCHEMA
    assert not out.exists()


@pytest.mark.parametrize(
    "config, flags, camera",
    [
        ({"ransac": {"seed": 2.5}}, [], {}),
        ({"noise": {"seed": -1}}, [], {}),
        ({}, ["--seed", "99999999999999999999999"], {}),
        ({"ransac": {"seed": 1e30}}, [], {}),
        ({"lm": {"max_iterations": 10**400}}, [], {}),
        ({}, [], {"width": 10**400}),
    ],
)
def test_bad_seeds_and_huge_integers_are_schema_errors(workspace, config, flags, camera):
    tmp_path, labeled = workspace
    manifest = json.loads(labeled.read_text())
    manifest["camera"].update(camera)
    labeled.write_text(json.dumps(manifest))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    report = tmp_path / "r.json"
    code = main(
        ["run", "--manifest", str(labeled), "--config", str(cfg), "--out", str(report), *flags]
    )
    assert code == EXIT_SCHEMA
    assert not report.exists()


@pytest.mark.parametrize("command", ["sample-poses", "split"])
@pytest.mark.parametrize(
    "seed, code", [(-1, EXIT_SCHEMA), (2**64, EXIT_SCHEMA), (2**64 - 1, EXIT_OK)]
)
def test_sampling_and_split_seeds_must_fit_64_bits(workspace, command, seed, code):
    tmp_path, labeled = workspace
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    if command == "sample-poses":
        args = ["--n", "2", "--out", str(out_dir / "m.json")]
    else:
        args = ["--manifest", str(labeled), "--train-fraction", "0.5", "--out-train",
                str(out_dir / "train.json"), "--out-test", str(out_dir / "test.json")]
    assert main([command, *args, "--seed", str(seed)]) == code
    assert any(out_dir.iterdir()) == (code == EXIT_OK)  # a refused seed writes nothing


@pytest.mark.parametrize(
    "config, flags, named",
    [
        ({"noise": "ab"}, [], "noise"),
        ({"noise": {"sigma_px": 3.0}}, [], "noise"),
        ({}, ["--sigma", "3"], "--sigma"),
        ({}, ["--outlier-rate", "0.2"], "--outlier-rate"),
        ({}, ["--dropout-rate", "0.1"], "--dropout-rate"),
        ({}, ["--noise-seed", "7"], "--noise-seed"),
    ],
)
def test_file_provider_refuses_noise_settings(workspace, capsys, config, flags, named):
    tmp_path, labeled = workspace
    predicted = tmp_path / "pred.json"
    assert main(["run", "--manifest", str(labeled), "--dump-predictions", str(predicted),
                 "--out", str(tmp_path / "oracle.json")]) == EXIT_OK
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    report = tmp_path / "r.json"
    code = main(["run", "--manifest", str(predicted), "--provider", "file", "--config", str(cfg),
                 "--out", str(report), *flags])
    assert code == EXIT_SCHEMA
    assert not report.exists()
    assert named in capsys.readouterr().err


def test_largest_seed_runs(workspace):
    tmp_path, labeled = workspace
    report = tmp_path / "r.json"
    code = main(
        ["run", "--manifest", str(labeled), "--seed", str(2**64 - 1), "--noise-seed",
         str(2**64 - 1), "--sigma", "1", "--out", str(report)]
    )
    assert code == EXIT_OK


def _refuses_setting(workspace, capsys, command, section, key, value):
    """``command`` with ``{section: {key: value}}`` as its config exits 2, writing nothing."""
    tmp_path, labeled = workspace
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"{section}": {{"{key}": {value}}}}}')
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    args = ["--manifest", str(labeled)] if command == "run" else ["--n", "2"]
    code = main([command, *args, "--config", str(cfg), "--out", str(out_dir / "o.json")])
    assert code == EXIT_SCHEMA
    assert not any(out_dir.iterdir())
    assert key in capsys.readouterr().err  # refused by the setting's guard, not by the run


@pytest.mark.parametrize(
    "command, section, key",
    [
        ("run", "noise", "sigma_px"),
        ("run", "ransac", "inlier_threshold"),
        ("run", "roi", "enlargement_factor"),
        ("sample-poses", "sampler", "dist_sigma"),
        ("sample-poses", "sampler", "in_frame_margin"),
    ],
)
def test_nan_settings_are_schema_errors(workspace, capsys, command, section, key):
    _refuses_setting(workspace, capsys, command, section, key, "NaN")


@pytest.mark.parametrize(
    "command, section, key",
    [
        ("run", "ransac", "seed"),
        ("run", "noise", "sigma_px"),
        ("sample-poses", "sampler", "in_frame_margin"),
    ],
)
def test_boolean_settings_are_schema_errors(workspace, capsys, command, section, key):
    # JSON true is not the number 1, as in a manifest
    _refuses_setting(workspace, capsys, command, section, key, "true")


def test_whole_float_counts_are_stored_as_int():
    from satpose import RansacConfig
    from satpose.sampler import PoseSamplerConfig

    ransac = RansacConfig(max_iterations=10.0, min_sample=4.0)
    assert type(ransac.max_iterations) is int and type(ransac.min_sample) is int
    assert type(PoseSamplerConfig(max_rejects=5.0).max_rejects) is int


@pytest.mark.parametrize("payload", [{}, {"e": "x", "n": [1]}])
def test_report_rejects_non_reports(tmp_path, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    merged = tmp_path / "merged.csv"
    assert main(["report", str(bad), "--out", str(merged)]) == EXIT_SCHEMA
    assert not merged.exists()


def test_report_rejects_bad_values_and_unknown_keys(workspace):
    tmp_path, labeled = workspace
    good = tmp_path / "good.json"
    assert main(["run", "--manifest", str(labeled), "--out", str(good)]) == EXIT_OK
    payload = json.loads(good.read_text())
    for key, value in (("E", "0.1"), ("E", float("nan")), ("fps", None), ("extra", 1.0)):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**payload, key: value}))
        assert main(["report", str(bad), "--out", str(tmp_path / "m.csv")]) == EXIT_SCHEMA


@pytest.mark.parametrize(
    "key, value", [("n", 2.5), ("n", 0), ("failures", -3), ("failures", 1.5)]
)
def test_report_counts_are_whole_numbers(workspace, capsys, key, value):
    tmp_path, labeled = workspace
    good = tmp_path / "good.json"
    argv = ["run", "--manifest", str(labeled), "--no-timing", "--out", str(good)]
    assert main(argv) == EXIT_OK
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**json.loads(good.read_text()), key: value}))
    merged = tmp_path / "merged.csv"
    capsys.readouterr()
    assert main(["report", str(good), str(bad), "--out", str(merged)]) == EXIT_SCHEMA
    assert not merged.exists()
    err = capsys.readouterr().err
    assert str(bad) in err and f"{key} must be a whole number" in err


def test_report_merges_timed_and_untimed(workspace):
    tmp_path, labeled = workspace
    timed, untimed = tmp_path / "timed.json", tmp_path / "untimed.json"
    assert main(["run", "--manifest", str(labeled), "--out", str(timed)]) == EXIT_OK
    assert (
        main(["run", "--manifest", str(labeled), "--no-timing", "--out", str(untimed)]) == EXIT_OK
    )
    merged = tmp_path / "merged.json"
    code = main(["report", str(timed), str(untimed), "--format", "json", "--out", str(merged)])
    assert code == EXIT_OK
    rows = json.loads(merged.read_text())
    assert "fps" in rows[0] and "fps" not in rows[1]
    assert rows[0]["E"] == rows[1]["E"]


CAMERA_FIELDS = [f.name for f in dataclasses.fields(_SECTIONS["camera"])]


@st.composite
def camera_objects(draw):
    """The six camera fields as ints or floats, then maybe one key dropped, added or retyped."""
    number = st.integers(1, 2000) | st.floats(1.0, 2000.0)
    camera = {name: draw(number) for name in CAMERA_FIELDS}
    change = draw(st.sampled_from(["none", "drop", "add", "retype"]))
    key = draw(st.sampled_from(CAMERA_FIELDS))
    if change == "drop":
        del camera[key]
    elif change == "add":
        camera["k1"] = draw(number)
    elif change == "retype":
        camera[key] = draw(st.booleans() | st.text(max_size=4) | st.integers(2**64, 10**300))
    return camera


# per section: arbitrary JSON, objects whose keys are the section's fields,
# and such objects with booleans among plausible numbers; drawn camera objects
SECTION_INPUTS = {
    name: json_values
    | st.dictionaries(st.sampled_from([f.name for f in dataclasses.fields(cls)]), json_values)
    | st.dictionaries(
        st.sampled_from([f.name for f in dataclasses.fields(cls)]),
        st.booleans() | st.integers(0, 2000) | st.floats(0.0, 2000.0),
    )
    | (camera_objects() if name == "camera" else st.nothing())
    for name, cls in _SECTIONS.items()
}


def _or_none(read):
    """``read()``, or ``None`` when it raises a schema error."""
    try:
        return read()
    except ManifestError:
        return None


@pytest.mark.parametrize("name", sorted(_SECTIONS))
@settings(
    max_examples=200, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_any_config_section_gives_its_dataclass_or_a_schema_error(tmp_path, name, data):
    value = data.draw(SECTION_INPUTS[name])
    section = _or_none(lambda: _section({name: value}, name))
    if name == "camera":  # a manifest camera follows the same rule
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"camera": value, "records": []}))
        assert _or_none(lambda: load_manifest(manifest).camera) == section
    if section is None:
        return
    assert isinstance(section, _SECTIONS[name])
    assert not any(isinstance(v, bool) for v in value.values())  # a boolean is no number


_CAMERA = {"fx": 2000, "fy": 2000, "cx": 640, "cy": 512, "width": 1280, "height": 1024}


@pytest.mark.parametrize("reader", ["manifest", "config"])
@pytest.mark.parametrize(
    "camera, named",
    [({**_CAMERA, "k1": 0.01}, r"camera: unknown keys \['k1'\]"),
     ({k: v for k, v in _CAMERA.items() if k != "fx"}, r"camera: missing fields \['fx'\]")],
    ids=["unknown-k1", "missing-fx"],
)
def test_camera_keys_are_exactly_the_six_fields(workspace, capsys, reader, camera, named):
    tmp_path, labeled = workspace
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    if reader == "manifest":
        payload = json.loads(labeled.read_text())
        payload["camera"] = camera
        labeled.write_text(json.dumps(payload))
        with pytest.raises(ManifestError, match=named):
            load_manifest(labeled)
        argv = ["generate-labels", "--manifest", str(labeled)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"camera": camera}))
        argv = ["sample-poses", "--n", "2", "--config", str(cfg)]
    assert main([*argv, "--out", str(out_dir / "o.json")]) == EXIT_SCHEMA
    assert not any(out_dir.iterdir())
    assert re.search(named, capsys.readouterr().err)


def test_wireframe_references_follow_manifests_into_other_directories(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in ("models", "a", "b", "c"):
        (tmp_path / name).mkdir()
    save_wireframe(example_wireframe(), "models/w.json")
    steps = [
        ["sample-poses", "--n", "12", "--seed", "3", "--wireframe", "models/w.json",
         "--out", "a/poses.json"],
        ["generate-labels", "--manifest", "a/poses.json", "--out", "b/labeled.json"],
        ["split", "--manifest", "b/labeled.json", "--train-fraction", "0.5", "--seed", "1",
         "--out-train", "c/train.json", "--out-test", "a/test.json"],
        ["run", "--manifest", "c/train.json", "--sigma", "1", "--outlier-rate", "0.1",
         "--no-timing", "--dump-predictions", "a/pred.json", "--out", "b/run.json"],
        ["run", "--manifest", "a/pred.json", "--provider", "file", "--no-timing",
         "--out", "c/run.json"],
    ]
    for argv in steps:
        assert main(argv) == EXIT_OK, argv
    for path in ("a/poses.json", "b/labeled.json", "c/train.json", "a/pred.json"):
        assert json.loads((tmp_path / path).read_text())["wireframe"] == "../models/w.json"
    assert (tmp_path / "b/run.json").read_bytes() == (tmp_path / "c/run.json").read_bytes()
    # the default wireframe file sits beside the manifest; an absolute reference stays absolute
    absolute = str(tmp_path / "models" / "w.json")
    for wireframe, stored in (None, "wireframe.json"), (absolute, absolute):
        argv = ["sample-poses", "--n", "2", "--out", str(tmp_path / "c" / "m.json")]
        assert main(argv + (["--wireframe", wireframe] if wireframe else [])) == EXIT_OK
        assert json.loads((tmp_path / "c/m.json").read_text())["wireframe"] == stored
        assert main(["generate-labels", "--manifest", "c/m.json", "--out", "b/m.json"]) == EXIT_OK
        relabeled = json.loads((tmp_path / "b/m.json").read_text())["wireframe"]
        assert relabeled == ("../c/wireframe.json" if wireframe is None else absolute)
