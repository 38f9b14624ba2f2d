"""End-to-end runs of the command line driver, in process via main(argv)."""
from __future__ import annotations

import hashlib
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ifs_shadow import load_orbit, make, validate
from ifs_shadow.cli import main


def test_list_examples(capsys: pytest.CaptureFixture) -> None:
    assert main(["list-examples"]) == 0
    out = capsys.readouterr().out
    assert "sierpinski" in out
    assert "circle_counterexample(a=0.5)" in out
    assert "beta" in out


def test_orbit_writes_and_validates(tmp_path, capsys) -> None:
    code = main(["orbit", "--out", str(tmp_path), "--horizon", "50", "--seed", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert str(tmp_path / "orbit.tsv") in out
    assert "validation[average]" in out
    orbit = load_orbit(str(tmp_path / "orbit.tsv"), make("sierpinski").space)
    assert len(orbit.points) == 51


def test_orbit_reruns_are_byte_identical(tmp_path) -> None:
    args = ["orbit", "--horizon", "40", "--seed", "7"]
    d1, d2, d3 = (tmp_path / n for n in ("a", "b", "c"))
    assert main(args + ["--out", str(d1)]) == 0
    assert main(args + ["--out", str(d2)]) == 0
    assert main(["orbit", "--horizon", "40", "--seed", "8", "--out", str(d3)]) == 0
    b1 = (d1 / "orbit.tsv").read_bytes()
    b2 = (d2 / "orbit.tsv").read_bytes()
    b3 = (d3 / "orbit.tsv").read_bytes()
    assert b1 == b2
    assert b1 != b3


def test_config_file_with_flag_override(tmp_path) -> None:
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# smoke run\n"
        "\n"
        "horizon = 7\n"
        "delta = 0.1\n"
        "seed = 3\n",
        encoding="utf-8",
    )
    space = make("sierpinski").space
    d1 = tmp_path / "fromcfg"
    assert main(["orbit", "--config", str(cfg), "--out", str(d1)]) == 0
    text = (d1 / "orbit.tsv").read_text(encoding="utf-8")
    assert "# horizon = 7\n" in text
    assert "# delta = 0.1\n" in text
    assert "# seed = 3\n" in text
    assert len(load_orbit(str(d1 / "orbit.tsv"), space).points) == 8

    # command line flag beats the config file
    d2 = tmp_path / "override"
    assert main(["orbit", "--config", str(cfg), "--horizon", "9", "--out", str(d2)]) == 0
    text = (d2 / "orbit.tsv").read_text(encoding="utf-8")
    assert "# horizon = 9\n" in text
    assert "# delta = 0.1\n" in text
    assert len(load_orbit(str(d2 / "orbit.tsv"), space).points) == 10


def test_malformed_config_line_exits_2(tmp_path, capsys) -> None:
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("horizon 7\n", encoding="utf-8")
    assert main(["orbit", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "usage error" in capsys.readouterr().err


def test_out_env_var_is_honored(tmp_path, monkeypatch) -> None:
    target = tmp_path / "landing"
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("IFS_SHADOW_OUT", str(target))
    assert main(["orbit", "--horizon", "12"]) == 0
    assert (target / "orbit.tsv").exists()
    assert not (tmp_path / "orbit.tsv").exists()


def test_unknown_example_exits_2(tmp_path, capsys) -> None:
    assert main(["orbit", "--example", "lorenz", "--out", str(tmp_path)]) == 2
    assert "usage error" in capsys.readouterr().err


def test_bad_param_token_exits_2(tmp_path, capsys) -> None:
    code = main(["orbit", "--example", "minimal_pair", "--param", "alpha",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "key=value" in capsys.readouterr().err


def test_argparse_rejects_unknown_flags() -> None:
    with pytest.raises(SystemExit) as exc:
        main(["orbit", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_out_path_collision_exits_3(tmp_path, capsys) -> None:
    blocker = tmp_path / "occupied"
    blocker.write_text("not a directory\n", encoding="utf-8")
    assert main(["orbit", "--out", str(blocker)]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_shadow_needs_contraction_ratio(tmp_path, capsys) -> None:
    code = main(["shadow", "--example", "circle_counterexample",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "no analytic contraction ratio" in capsys.readouterr().err


def test_shadow_stopped_by_the_search_budget_writes_nothing(tmp_path, capsys) -> None:
    # 2**16 cylinder centres times 2000 steps exceed the greedy search budget
    code = main(["shadow", "--example", "sigma2_shift", "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert "exceed the search budget" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_shadow_writes_constructive_and_search_reports(tmp_path, capsys) -> None:
    code = main(["shadow", "--out", str(tmp_path), "--horizon", "60",
                 "--eps", "0.3", "--candidates", "4", "--seed", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert (tmp_path / "shadow_constructive.csv").exists()
    assert (tmp_path / "shadow_search.csv").exists()
    assert "ok=True" in out
    assert "search average=" in out


def test_chainrec_finds_and_writes_a_chain(tmp_path, capsys) -> None:
    # eps 0.08 > twice the box radius 0.025..., so every hop has a center
    # within the inner slack and reachability is limited only by the maps
    code = main([
        "chainrec", "--example", "minimal_pair", "--param", "alpha=0.125",
        "--eps", "0.08", "--resolution", "40",
        "--chain-from", "0.2", "--chain-to", "0.9", "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "chain length=" in out
    assert (tmp_path / "edges.txt").exists()
    assert (tmp_path / "recurrence.csv").exists()
    ifs = make("minimal_pair", alpha=0.125)
    chain = load_orbit(str(tmp_path / "chain.tsv"), ifs.space)
    assert chain.points[0] == 0.2
    assert chain.points[-1] == 0.9
    assert max(chain.errors) <= 0.08 + 1e-12
    assert validate(chain, 0.08 + 1e-9, "plain").passed


def test_chainrec_reports_missing_chain(tmp_path, capsys) -> None:
    # under the single map toward (0, 0) nothing escapes that corner's basin
    code = main([
        "chainrec", "--example", "sierpinski", "--maps", "1",
        "--eps", "0.05", "--resolution", "16",
        "--chain-from", "0.05,0.05", "--chain-to", "0.8,0.05",
        "--out", str(tmp_path),
    ])
    assert code == 1
    assert "no chain found" in capsys.readouterr().out
    assert (tmp_path / "edges.txt").exists()
    assert not (tmp_path / "chain.tsv").exists()


def test_chainrec_default_outputs_are_pinned(tmp_path) -> None:
    """The circle graph and a wrap-around chain at the default config; the
    chain follows the order in which the cover lists nearby boxes."""
    code = main(["chainrec", "--chain-from", "0.95", "--chain-to", "0.03",
                 "--out", str(tmp_path)])
    assert code == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("edges.txt", "recurrence.csv", "chain.tsv")
    }
    assert digests == {
        "edges.txt": "1d834bae9c5fed9886e4be27a5db0b10f255149bb7011f70de9d167c7aaba821",
        "recurrence.csv": "88a776214704824d8d898b05fb9d1b9db212872e2d2de1e329681c1e91a79f21",
        "chain.tsv": "c447a31090af1913370ee552787a0fc7c7e90b6810fa6560b4611ddee3dff640",
    }


@pytest.mark.parametrize(
    "example, ends",
    [
        ("circle_counterexample", ("0.1,0.1", "0.5")),
        ("circle_counterexample", ("0.1", "0.5,0.5")),
        ("sierpinski", ("0.1", "0.5,0.1")),
    ],
    ids=["circle-extra-from", "circle-extra-to", "plane-missing-from"],
)
def test_chainrec_rejects_wrong_coordinate_count(tmp_path, capsys, example, ends) -> None:
    code = main(["chainrec", "--example", example, "--resolution", "16",
                 "--chain-from", ends[0], "--chain-to", ends[1], "--out", str(tmp_path)])
    assert code == 2
    assert "comma-separated coordinates" in capsys.readouterr().err
    assert not (tmp_path / "edges.txt").exists()


@pytest.mark.parametrize("flag", ["--grid", "--streams"])
def test_counterexample_rejects_empty_sweep(tmp_path, capsys, flag) -> None:
    code = main(["counterexample", "--block", "2", "--doublings", "2",
                 flag, "0", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "grid and streams must be positive" in err
    assert "zero-size" not in err


def test_counterexample_small_sweep(tmp_path, capsys) -> None:
    code = main(["counterexample", "--block", "2", "--doublings", "2",
                 "--grid", "4", "--streams", "2", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert (tmp_path / "sweep.csv").exists()
    assert (tmp_path / "block_orbit.tsv").exists()
    assert "block orbit validates at delta=" in out


def test_attractor_writes_points_and_image(tmp_path) -> None:
    code = main(["attractor", "--iterations", "500", "--resolution", "16",
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "attractor_points.tsv").exists()
    data = (tmp_path / "attractor.pgm").read_bytes()
    assert data.startswith(b"P5\n16 16\n255\n")


def test_attractor_rejects_unrasterizable_space(tmp_path, capsys) -> None:
    code = main(["attractor", "--example", "sigma2_shift",
                 "--iterations", "200", "--out", str(tmp_path)])
    assert code == 2
    assert "cannot rasterize" in capsys.readouterr().err
    assert (tmp_path / "attractor_points.tsv").exists()
    assert not (tmp_path / "attractor.pgm").exists()


def test_verify_writes_report_and_flags_failure(tmp_path, capsys) -> None:
    code = main(["verify", "--out", str(tmp_path)])
    assert code == 1
    text = (tmp_path / "acceptance_report.txt").read_text(encoding="utf-8")
    assert text.startswith("ifs-shadow acceptance report\n")
    assert "criterion 1: PASS" in text
    assert "criterion 5: FAIL" in text
    assert "summary: 6/7 criteria passed" in text
    assert text in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--chain-from", "--chain-to"])
def test_chainrec_needs_both_chain_endpoints(tmp_path, capsys, flag) -> None:
    code = main(["chainrec", "--resolution", "16", flag, "0.1", "--out", str(tmp_path)])
    assert code == 2
    assert "--chain-from and --chain-to" in capsys.readouterr().err
    assert not (tmp_path / "edges.txt").exists()


@pytest.mark.parametrize(
    "argv, name",
    [
        (["orbit", "--delta", "nan"], "delta"),
        (["orbit", "--delta", "inf"], "delta"),
        (["orbit", "--horizon", "-3"], "horizon"),
        (["shadow", "--horizon", "-5", "--search", "none"], "horizon"),
        (["shadow", "--eps", "nan", "--search", "none"], "eps"),
        (["shadow", "--eps", "inf", "--search", "none"], "eps"),
        (["chainrec", "--eps", "nan", "--resolution", "16"], "eps"),
        (["orbit", "--noise", "burst", "--jump-factor", "nan"], "jump"),
        (["orbit", "--noise", "burst", "--jump-factor", "-4"], "jump"),
    ],
    ids=["orbit-delta-nan", "orbit-delta-inf", "orbit-horizon", "shadow-horizon",
         "shadow-eps-nan", "shadow-eps-inf", "chainrec-eps-nan",
         "orbit-jump-nan", "orbit-jump-negative"],
)
def test_out_of_range_parameters_exit_2(tmp_path, capsys, argv, name) -> None:
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert name in err


@pytest.mark.parametrize("resolution", [0, -4])
def test_attractor_rejects_resolution_below_one(tmp_path, capsys, resolution) -> None:
    code = main(["attractor", "--iterations", "200", "--resolution", str(resolution),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "resolution must be positive" in capsys.readouterr().err
    assert (tmp_path / "attractor_points.tsv").exists()
    assert not (tmp_path / "attractor.pgm").exists()


def test_counterexample_budget_stops_huge_doublings(tmp_path, capsys) -> None:
    code = main(["counterexample", "--doublings", "60", "--out", str(tmp_path)])
    assert code == 1
    assert "budget" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "argv, output",
    [
        # 8193**2 plane boxes, just over the cover budget of 2**26
        (["chainrec", "--example", "sierpinski", "--resolution", "8193"], "edges.txt"),
        (["counterexample", "--grid", "65536"], "sweep.csv"),
        (["attractor", "--iterations", "2000000"], "attractor_points.tsv"),
        # 2049**2 pixels, just over the image budget of 2**22
        (["attractor", "--iterations", "200", "--resolution", "2049"], "attractor.pgm"),
        # 2**16 cylinder centres x 2000 steps x 2 labels, over the search budget
        # of 5e7; the run stops in about a second instead of searching for minutes
        (["shadow", "--example", "sigma2_shift"], "shadow_search.csv"),
    ],
    ids=["chainrec-resolution", "counterexample-grid", "attractor-iterations",
         "attractor-resolution", "shadow-sigma2-candidates"],
)
def test_size_flags_stop_at_their_budget(tmp_path, capsys, argv, output) -> None:
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert "budget" in capsys.readouterr().err
    assert not (tmp_path / output).exists()


@pytest.mark.parametrize(
    "argv, digests",
    [
        (["shadow", "--horizon", "300", "--candidates", "8"], {
            "shadow_constructive.csv": "a79d464ce93329e2ec348c979ca4b6be460a51fe19eef6129f6aecb37024f3f9",
            "shadow_search.csv": "c053338aa95d7e423545cdb73de8b33b258466545ef8d49de1b406d432d9335b",
        }),
        (["shadow", "--example", "minimal_pair", "--horizon", "300", "--candidates", "16"], {
            "shadow_constructive.csv": "ec46c543d743212f2aa93b7c523ba098a5298400a8fae9941d93baf98da71220",
            "shadow_search.csv": "03e37cfef3bcda86b2e180346b6eb7fc6d78b9458322b511f1e1429cede20fcf",
        }),
        (["shadow", "--seed", "7"], {
            "shadow_constructive.csv": "630e08e4958c818e46f1b15dd6fdf38919e96136e4b75dfa1a2e04bac3c9e502",
            "shadow_search.csv": "7481c0ac091d3424e64dc914dca390d4c4846a14218a73c52917cddf597e1aef",
        }),
        (["shadow", "--example", "minimal_pair", "--seed", "3"], {
            "shadow_constructive.csv": "c18bfdd86b4a16c29c9a26f5f8c77e1e4cfe4b83aacbfab8895f71fed1b9d9c9",
            "shadow_search.csv": "ff68d052fe3915d9d5cf90aea0bd3e4696bb832d5961fa5ad57a61027ec0a7cd",
        }),
        (["orbit", "--example", "sigma2_shift", "--horizon", "300", "--mode", "average_shifted"], {
            "orbit.tsv": "b464e36b5c719092dd70f6abbee36d9fc4030df7634cd9f3ba531102d10c170f",
        }),
        (["orbit", "--example", "finite_set", "--horizon", "200", "--noise", "burst",
          "--jump-factor", "1", "--period", "40"], {
            "orbit.tsv": "5f287530d716c18e7f6f3632537dbb0b1d705d36815d7fa88c735ecb576fc4d1",
        }),
        (["orbit", "--example", "sigma2_shift", "--horizon", "2000", "--mode", "average_shifted",
          "--seed", "7"], {
            "orbit.tsv": "119909b3bb0eeb30a11b33789684a2e3dbc7957f0d880ac62ad5576322b8dedd",
        }),
        (["orbit", "--example", "sigma2_shift", "--horizon", "1500", "--noise", "burst",
          "--jump-factor", "4", "--period", "8", "--seed", "3"], {
            "orbit.tsv": "6d9d9d542d5fc85744122e60ae1935f300896db8c004b783e0d19c936d287726",
        }),
        (["shadow", "--example", "sigma2_shift", "--horizon", "400", "--candidates", "6"], {
            "shadow_constructive.csv": "98e4242e212d7c44f817017479e5ef9e4f557681f385ee6a3ba155585a07d402",
            "shadow_search.csv": "5f1fbf3481aee660f4c3e81c0e34ecc7a956ff1a8fa1a477868b4946dfa7e8ba",
        }),
        (["chainrec", "--example", "sigma2_shift", "--eps", "0.1", "--resolution", "8",
          "--chain-from", "0110|01", "--chain-to", "1|0"], {
            "chain.tsv": "d354726bdc174363fe428f08f7c1b6e32114d3aeed250f29a7c1f9a47c77daa1",
            "edges.txt": "540b943417bc24a2b1442de0134130b58464ee143de771bf7e3efca848a510f7",
            "recurrence.csv": "ae39c92ce34deea492a3e09cf95d9b55f022b2b720966d1b11eb3b0e0b1f9b50",
        }),
        (["chainrec", "--example", "sierpinski", "--eps", "0.05", "--resolution", "32",
          "--chain-from", "0.1,0.05", "--chain-to", "0.8,0.2"], {
            "chain.tsv": "c5e2aed6b4a511a355e01ad6cc325f9c49e8ec26fdc2618153ac9fecb983437e",
            "edges.txt": "532f0e339d38aad34652476bb94888a7efbb44a36dd79e465de02eacab58db8a",
            "recurrence.csv": "b86e993975c5ee00b00e745df7c01103672598aef7a2cfc96688064750ddfce1",
        }),
        (["chainrec", "--example", "minimal_pair", "--eps", "0.02", "--resolution", "1024",
          "--chain-from", "0.2", "--chain-to", "0.9"], {
            "chain.tsv": "afb984781be1d3b5471cf301ef8b8ebe6b19f33b7ab5c19352dc91a98282a4fc",
            "edges.txt": "726da65eca4a513d76833fcb088f6e8464c649ef4b6e2e735c820ac740411527",
            "recurrence.csv": "c33d9708b5088d295702f9ad3e9bf5f620cb48cbe89b3f78314d2d49445ca0d9",
        }),
        # the first hop from x already lands on y: one step, no box in between
        (["chainrec", "--example", "finite_set", "--eps", "0.5", "--resolution", "1",
          "--chain-from", "0", "--chain-to", "2"], {
            "chain.tsv": "0be8986bc0536aaedcc36f94843dc33a692991919a221b3522a9f79aef14f881",
        }),
        # attractor images at their defaults: one plane and two line strips
        (["attractor", "--example", "sierpinski"], {
            "attractor_points.tsv": "ac4614ce0629c1ae734170bb334348aa3f30664214e2d2770d42e58652162c75",
            "attractor.pgm": "cd4eca8a4433364856e463dc0661cb01866092b60e5b32fe3ebd29a1f3a5672d",
        }),
        (["attractor", "--example", "minimal_pair"], {
            "attractor_points.tsv": "ff8ccaadcd40d5e8ff1a8e1424ed82d2c7089e1b58548d4594786ec34dfe1f9a",
            "attractor.pgm": "39c80b9fbb38dfeaa07b0fb83ffd80a1fadc9f44f695015548e6267a30cd450c",
        }),
        (["attractor", "--example", "circle_counterexample"], {
            "attractor_points.tsv": "6d76c21e4bf567512b9fd872005630e902ef43c870a48d00ea9f7e682d507b82",
            "attractor.pgm": "2284308b59b97870eba61e230794419cb2673c49aa712e983032f1acf81dc835",
        }),
    ],
    ids=["shadow-gasket", "shadow-interval", "shadow-gasket-default", "shadow-interval-default",
         "orbit-sigma2", "orbit-finite-set",
         "orbit-sigma2-long", "orbit-sigma2-burst", "shadow-sigma2", "chainrec-sigma2",
         "chainrec-gasket", "chainrec-interval", "chainrec-finite-set-first-hop",
         "attractor-gasket", "attractor-interval", "attractor-circle"],
)
def test_per_point_outputs_are_pinned(tmp_path, argv, digests) -> None:
    """Runs through every space whose point checks sit at the entry points,
    sigma2 runs whose long prefixes go through every `BinarySeq` operation, and
    plane and interval box graphs built from cover range queries."""
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in digests
    } == digests


_FUZZ_FLOATS = st.sampled_from(["nan", "inf", "-inf", "-3", "0", "0.05", "0.3"])
_FUZZ_SIZES = st.sampled_from(["nan", "-3", "0", "1", "2"])  # tiny, so every run is quick


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_parameters_never_raise(tmp_path, data) -> None:
    """Bad numbers end in a documented exit code, never in a traceback."""
    command, knob, size, *extra = data.draw(st.sampled_from([
        ("orbit", "--delta", "--horizon"),
        ("orbit", "--jump-factor", "--horizon", "--noise", "burst"),
        ("shadow", "--eps", "--horizon"),
        ("chainrec", "--eps", "--resolution"),
        ("attractor", "--iterations", "--resolution"),
    ]))
    values = _FUZZ_SIZES if command == "attractor" else _FUZZ_FLOATS
    argv = [command, *extra, knob, data.draw(values), size, data.draw(_FUZZ_SIZES),
            "--out", str(tmp_path)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a non-integer for an int flag
        code = exc.code
    assert code in (0, 1, 2, 3)
