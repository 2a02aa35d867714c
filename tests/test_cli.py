"""CLI argument handling, scenario files, CSV outputs, check suites."""

import contextlib
import io
import os
import signal
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackfuse import bp as bp_mod
from trackfuse import checks, cli
from trackfuse import sim as sim_mod
from trackfuse.errors import InputError

SCENARIO_FILE = """
# toy two-sensor scenario
[scenario]
duration=20
dt=1.0
q=0.1
sigma=5.0

[sensor]
position=-600,-800
aim_at=0,-200
fov_half_angle=0.7853981633974483
fov_range=1200
p_d=0.9
clutter_rate=5

[sensor]
position=600,-800
aim_at=0,-200

[target]
birth=1
death=20
state=-100,-100,8,1
"""


class TestScenarioFile:
    def test_parse_round_trip(self, tmp_path):
        path = tmp_path / "toy.cfg"
        path.write_text(SCENARIO_FILE)
        cfg = cli.parse_scenario_file(path)
        assert cfg.duration == 20
        assert len(cfg.sensors) == 2
        assert cfg.sensors[0].clutter_rate == 5.0
        assert cfg.sensors[1].clutter_rate == 10.0  # default
        assert cfg.targets[0].death == 20

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[scenario]\ndt=1\n[sensor]\np_d=0.9\n")
        with pytest.raises(InputError, match="duration"):
            cli.parse_scenario_file(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "bad2.cfg"
        path.write_text("[scenario]\nduration=ten\n")
        with pytest.raises(InputError, match="bad2.cfg:2"):
            cli.parse_scenario_file(path)

    @pytest.mark.parametrize("key, value", [("clutter_rate", "0"), ("clutter_rate", "-2"),
                                            ("clutter_rate", "inf"),
                                            ("p_d", "0"), ("p_d", "1.5"),
                                            ("fov_range", "nan"), ("fov_range", "0"),
                                            ("fov_half_angle", "0"),
                                            ("fov_half_angle", "3.2"),
                                            ("clutter_rate", "1e308"),
                                            ("clutter_rate", "1e-320"),
                                            ("fov_range", "1e308")])
    def test_sensor_rate_out_of_range_reports_line(self, tmp_path, key, value):
        # clutter_rate = 0 used to pass here and crash the run in math.log
        text = SCENARIO_FILE.replace("p_d=0.9\nclutter_rate=5",
                                     "p_d=0.9\nclutter_rate=5\n" + f"{key}={value}")
        lineno = text.splitlines().index(f"{key}={value}") + 1
        path = tmp_path / "rates.cfg"
        path.write_text(text)
        with pytest.raises(InputError, match=f"rates.cfg:{lineno}: '{key}' must be"):
            cli.load_scenario(str(path))

    @pytest.mark.parametrize("line, bad", [
        ("duration=20", "duration=nan"), ("duration=20", "duration=inf"),
        ("duration=20", "duration=0"), ("duration=20", "duration=2.5"),
        ("dt=1.0", "dt=0"), ("dt=1.0", "dt=nan"), ("q=0.1", "q=-1"),
        ("q=0.1", "q=inf"), ("sigma=5.0", "sigma=-1"), ("birth=1", "birth=1.5"),
        ("death=20", "death=inf"),
        ("duration=20", "duration=1e6"), ("dt=1.0", "dt=1e6"), ("q=0.1", "q=1e308"),
        ("sigma=5.0", "sigma=1e308"), ("birth=1", "birth=-1e308"),
        ("death=20", "death=21"), ("death=20", "death=1")])
    def test_scenario_and_target_numbers_report_line(self, tmp_path, line, bad):
        # duration=nan used to raise a bare ValueError, and dt=0 and sigma=-1
        # used to run to exit code 0; huge numbers overflowed in the run
        # (OverflowError, numpy's LinAlgError or ValueError) or did not end
        # (birth=-1e308), and a death outside (birth, duration] raised an
        # untyped ConfigError from the scenario
        text = SCENARIO_FILE.replace(line, bad)
        lineno = text.splitlines().index(bad) + 1
        path = tmp_path / "numbers.cfg"
        path.write_text(text)
        key = bad.split("=")[0]
        with pytest.raises(InputError, match=f"numbers.cfg:{lineno}: '{key}' must be"):
            cli.load_scenario(str(path))

    @pytest.mark.parametrize("line, bad", [
        ("position=-600,-800", "position=nan,-800"),
        ("aim_at=0,-200", "aim_at=inf,-200"),
        ("aim_at=0,-200", "boresight=-inf"),
        ("state=-100,-100,8,1", "state=nan,-100,8,1")])
    def test_list_fields_must_be_finite(self, tmp_path, line, bad):
        # a nan state or sensor position used to run to exit code 0, the
        # target or sensor silently missing from the curves
        text = SCENARIO_FILE.replace(line, bad, 1)
        lineno = text.splitlines().index(bad) + 1
        path = tmp_path / "lists.cfg"
        path.write_text(text)
        key = bad.split("=")[0]
        with pytest.raises(InputError, match=f"lists.cfg:{lineno}: '{key}' must be finite"):
            cli.load_scenario(str(path))

    def test_missing_file(self):
        with pytest.raises(InputError, match="not found"):
            cli.parse_scenario_file(cli.Path("/nonexistent/file.cfg"))


class TestSpec:
    def test_sweep_parsing(self):
        parser = cli.build_parser()
        args = parser.parse_args(["run", "--sweep", "clutter_rate=10,20",
                                  "--payload", "raw,type2"])
        spec = cli.spec_from_args(args)
        assert spec.sweep_param == "clutter_rate"
        assert spec.sweep_values == (10.0, 20.0)
        assert spec.payloads == ("raw", "type2")

    def test_invalid_sweep_param(self):
        parser = cli.build_parser()
        args = parser.parse_args(["run", "--sweep", "banana=1,2"])
        with pytest.raises(InputError):
            cli.spec_from_args(args)

    def test_invalid_pd_value(self):
        parser = cli.build_parser()
        args = parser.parse_args(["run", "--sweep", "p_d=1.5"])
        with pytest.raises(InputError):
            cli.spec_from_args(args)

    def test_env_overrides(self, monkeypatch, tmp_path):
        monkeypatch.setenv(cli.ENV_SEED, "77")
        monkeypatch.setenv(cli.ENV_OUT, str(tmp_path / "envout"))
        args = cli.build_parser().parse_args(["run"])
        spec = cli.spec_from_args(args)
        assert spec.seed == 77
        assert spec.output_dir.endswith("envout")

    @pytest.mark.parametrize("flags", [["--particles", "0"], ["--particles", "-1"],
                                       ["--workers", "0"],
                                       ["--particles", str(bp_mod.MAX_PARTICLES + 1)]])
    def test_bad_count_exits_with_error(self, tmp_path, capsys, flags):
        # a particle count below one used to end in numpy's ValueError
        rc = cli.main(["run", "--fusion", "mda", "--runs", "1",
                       "--out", str(tmp_path / "out")] + flags)
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["abc", "", "1.5", "7x"])
    def test_seed_variable_not_an_integer_exits_with_error(self, tmp_path, capsys,
                                                          monkeypatch, value):
        # it used to end in int()'s untyped ValueError
        monkeypatch.setenv(cli.ENV_SEED, value)
        rc = cli.main(["run", "--runs", "1", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"error: {cli.ENV_SEED} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_particle_count_at_the_cap_is_accepted(self):
        # parsed only: a run at the cap would allocate about 0.5 GB per step
        args = cli.build_parser().parse_args(
            ["run", "--fusion", "bp", "--particles", str(bp_mod.MAX_PARTICLES)])
        assert cli.spec_from_args(args).n_particles == 50_000

    def test_pool_size_is_capped_by_jobs_and_cpus(self, monkeypatch):
        monkeypatch.setattr(sim_mod.os, "cpu_count", lambda: 2)
        assert sim_mod.pool_size(10 ** 9, 5) == 2
        assert sim_mod.pool_size(10 ** 9, 1) == 1
        assert sim_mod.pool_size(1, 5) == 1
        monkeypatch.setattr(sim_mod.os, "cpu_count", lambda: None)
        assert sim_mod.pool_size(10 ** 9, 5) == 1

    def test_runs_times_sweep_values_is_capped_before_any_job(self, tmp_path, capsys,
                                                             monkeypatch):
        # --runs 1000000000 used to build a billion job tuples, each with its
        # own copy of the spec and the sweep list, before the first job ran
        with pytest.raises(InputError, match="runs x sweep values"):
            cli.ExperimentSpec(runs=10 ** 9)
        half = cli.MAX_JOBS // 2
        with pytest.raises(InputError, match=f"{half + 1} x 2"):
            cli.ExperimentSpec(runs=half + 1, sweep_param="p_d", sweep_values=(0.5, 0.9))
        assert cli.ExperimentSpec(runs=half, sweep_param="p_d",
                                  sweep_values=(0.5, 0.9)).runs == half
        started = []
        monkeypatch.setattr(sim_mod, "run_single",
                            lambda *args, **kw: started.append(args))
        rc = cli.main(["run", "--runs", str(10 ** 9), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "runs x sweep values" in capsys.readouterr().err
        assert started == [] and not (tmp_path / "out").exists()

    def test_one_harness_call_runs_every_sweep_value_and_run(self, tmp_path,
                                                             monkeypatch):
        jobs = []

        def record(cfg, fusion, payloads, run_idx, **kw):
            jobs.append((cfg.sensors[0].p_d, run_idx))
            return {"raw": None}

        monkeypatch.setattr(sim_mod, "run_single", record)
        monkeypatch.setattr(cli, "_write_curves", lambda *args: None)
        monkeypatch.setattr(cli, "_write_comm", lambda *args: None)
        monkeypatch.setattr(cli, "_write_summary", lambda *args: None)
        spec = cli.ExperimentSpec(runs=3, sweep_param="p_d", sweep_values=(0.5, 0.9),
                                  payloads=("raw",), output_dir=str(tmp_path / "out"))
        assert cli.run_experiment(spec) == 0
        assert jobs == [(sv, run) for sv in (0.5, 0.9) for run in range(3)]

    @pytest.mark.parametrize("sweep", ["clutter_rate=1e308", "clutter_rate=nan",
                                       "p_d=nan"])
    def test_sweep_value_out_of_range_exits_with_error(self, tmp_path, capsys, sweep):
        # clutter_rate=1e308 used to end in numpy's ValueError in the run
        rc = cli.main(["run", "--runs", "1", "--sweep", sweep,
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_payload_named_twice_exits_with_error(self, tmp_path, capsys):
        # the arm used to run twice per run and print its summary row twice
        with pytest.raises(InputError, match="'raw'"):
            cli.ExperimentSpec(payloads=("raw", "type2", "raw"))
        rc = cli.main(["run", "--runs", "1", "--payload", "raw,type2,raw",
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_empty_payload_list_exits_with_error(self, tmp_path, capsys):
        # it used to simulate every run and write header-only CSVs
        with pytest.raises(InputError, match="no payload"):
            cli.ExperimentSpec(payloads=())
        rc = cli.main(["run", "--runs", "1", "--payload", ",",
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_bad_config_exits_nonzero(self, capsys):
        rc = cli.main(["run", "--sweep", "banana=1"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestRunExperiment:
    def test_bad_scenario_file_leaves_no_output_dir(self, tmp_path, capsys):
        # the output directory used to be made before the scenario was read
        scenario = tmp_path / "toy.cfg"
        scenario.write_text(SCENARIO_FILE.replace("state=-100,-100,8,1",
                                                  "state=nan,-100,8,1"))
        out = tmp_path / "toy_out"
        rc = cli.main(["run", "--scenario", str(scenario), "--runs", "1",
                       "--out", str(out)])
        assert rc == 2
        assert "'state' must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_outputs_and_determinism(self, tmp_path):
        scenario = tmp_path / "toy.cfg"
        scenario.write_text(SCENARIO_FILE)
        argv = ["run", "--scenario", str(scenario), "--fusion", "mda",
                "--payload", "raw,type2", "--runs", "2", "--seed", "9"]
        assert cli.main(argv + ["--out", str(tmp_path / "a")]) == 0
        assert cli.main(argv + ["--out", str(tmp_path / "b")]) == 0
        for name in ("curves.csv", "comm.csv", "summary.txt"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name
        header = (tmp_path / "a" / "curves.csv").read_text().splitlines()[0]
        assert header == "scan,metric,sweep_value,payload,fusion,mean"

    def test_curve_rows_sorted(self, tmp_path):
        scenario = tmp_path / "toy.cfg"
        scenario.write_text(SCENARIO_FILE)
        out = tmp_path / "c"
        rc = cli.main(["run", "--scenario", str(scenario), "--payload", "raw",
                       "--runs", "1", "--out", str(out),
                       "--sweep", "clutter_rate=5,10"])
        assert rc == 0
        rows = (out / "curves.csv").read_text().splitlines()[1:]
        keys = []
        for row in rows:
            scan, metric, sv, payload, fusion, _ = row.split(",")
            keys.append((int(scan), float(sv), payload, metric))
        assert keys == sorted(keys)

    def test_pool_is_sized_before_it_starts(self, tmp_path, monkeypatch):
        # a stand-in executor records its size and runs the jobs in-process
        sizes = []

        class Executor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(sim_mod.futures, "ProcessPoolExecutor", Executor)
        monkeypatch.setattr(sim_mod.os, "cpu_count", lambda: 3)
        scenario = tmp_path / "toy.cfg"
        scenario.write_text(SCENARIO_FILE)
        argv = ["run", "--scenario", str(scenario), "--payload", "raw",
                "--runs", "2", "--out", str(tmp_path / "o"), "--workers", "100000"]
        assert cli.main(argv) == 0
        assert sizes == [2]

    def test_workers_match_serial(self, tmp_path):
        scenario = tmp_path / "toy.cfg"
        scenario.write_text(SCENARIO_FILE)
        argv = ["run", "--scenario", str(scenario), "--payload", "raw",
                "--runs", "2", "--seed", "4"]
        for k, sweep in enumerate(([], ["--sweep", "clutter_rate=5,20"])):
            serial, pool = tmp_path / f"serial{k}", tmp_path / f"pool{k}"
            assert cli.main(argv + sweep + ["--out", str(serial)]) == 0
            assert cli.main(argv + sweep + ["--out", str(pool), "--workers", "2"]) == 0
            for name in ("curves.csv", "comm.csv", "summary.txt"):
                assert (serial / name).read_bytes() == (pool / name).read_bytes(), name


class TestChecks:
    def test_metrics_suite_passes(self, capsys):
        assert cli.run_checks("metrics") == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_bp_exactness_suite_passes(self):
        assert cli.run_checks("bp-exactness") == 0

    def test_unknown_suite(self, capsys):
        assert cli.run_checks("nope") == 2

    def test_failing_battery_exits_nonzero(self, monkeypatch, capsys):
        monkeypatch.setitem(checks.SUITES, "metrics",
                            lambda: [("holds", True, "fine"), ("breaks", False, "off by 1")])
        assert cli.run_checks("metrics") == 1
        out = capsys.readouterr().out
        assert "[PASS] holds: fine" in out and "[FAIL] breaks: off by 1" in out


class TestIoErrors:
    def test_unwritable_output_dir(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        rc = cli.main(["run", "--scenario", "scenario1", "--payload", "raw",
                       "--runs", "1", "--out", str(blocker / "nested")])
        assert rc == 1
        assert "i/o error" in capsys.readouterr().err


# -- fuzzing the command line -------------------------------------------------

VALID_SCENARIO = {
    "scenario": {"dt": ("1.0", "0.5", "2"), "q": ("0", "0.1", "1"),
                 "sigma": ("5.0", "1", "20")},
    "sensor": {"aim_at": ("0,-200", "0,0"), "boresight": ("1.2", "-0.5"),
               "fov_half_angle": ("0.7853981633974483", "3.14159", "0.1"),
               "fov_range": ("1200", "300"), "p_d": ("0.9", "1", "0.5"),
               "clutter_rate": ("5", "10", "40")},
    "target": {},
}
# what a mutation writes over a value
BAD_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "2.5", "abc", "",
              "1,2", "1,2,3,4,5", "0x10", "1e-320")


@st.composite
def scenario_texts(draw):
    """Scenario-file text: a valid file of 2 or 3 scans and up to three
    sensors and targets, then up to two mutations (a value overwritten, a
    line dropped or doubled, a stray line)."""
    duration = draw(st.integers(2, 3))
    lines = []
    for name in (["scenario"] + ["sensor"] * draw(st.integers(1, 3))
                 + ["target"] * draw(st.integers(1, 3))):
        lines.append(f"[{name}]")
        if name == "scenario":
            lines.append(f"duration={duration}")
        elif name == "sensor":
            lines.append("position=" + draw(st.sampled_from(("-600,-800", "600,-800",
                                                             "0,500"))))
        else:
            birth = draw(st.integers(0, duration - 1))
            lines += [f"birth={birth}", f"death={draw(st.integers(birth + 1, duration))}",
                      "state=" + draw(st.sampled_from(("-100,-100,8,1", "0,0,0,0",
                                                       "500,200,-5,3")))]
        for key, values in VALID_SCENARIO[name].items():
            if draw(st.booleans()):
                lines.append(f"{key}={draw(st.sampled_from(values))}")
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("value", "value", "drop", "double", "stray")))
        if kind == "value" and "=" in lines[k]:
            lines[k] = lines[k].split("=")[0] + "=" + draw(st.sampled_from(BAD_VALUES))
        elif kind == "drop":
            del lines[k]
        elif kind == "double":
            lines.insert(k, lines[k])
        else:
            lines.insert(k, draw(st.sampled_from(("[bogus]", "no equals sign", "=5",
                                                  "# comment", "[sensor"))))
    return "\n".join(lines) + "\n"


def count_flag(name, values):
    """`--name value` with a value from `values` three times in four."""
    return st.one_of(st.sampled_from(values), st.sampled_from(values),
                     st.sampled_from(values), st.sampled_from(("0", "-1", "2.5", "x"))
                     ).map(lambda v: [f"--{name}", v])


@st.composite
def job_flags(draw):
    """`--runs` (see `count_flag`) and, two times in three, a `--sweep` of one
    or two P_d values; one time in five instead a run count that takes runs x
    sweep values just past `cli.MAX_JOBS`."""
    values = draw(st.sampled_from(((), ("0.9",), ("0.5", "1"))))
    sweep = ["--sweep", "p_d=" + ",".join(values)] if values else []
    if draw(st.integers(0, 4)) == 0:
        return ["--runs", str(cli.MAX_JOBS // max(len(values), 1) + 1)] + sweep
    return draw(count_flag("runs", ("1",))) + sweep


def seed_values():
    """A `TRACKFUSE_SEED` value: an integer string three times in four, else
    a string that is no integer."""
    integers = st.integers(-2 ** 63, 2 ** 63).map(str)
    return st.one_of(integers, integers, integers,
                     st.sampled_from(("abc", "", " ", "1.5", "0x10", "1e3", "nan")))


class RunTooLong(BaseException):
    """Raised into a run that exceeds the fuzzer's time bound."""


def arm_disagreements(curves: str) -> list:
    """The (scan, metric, sweep value, raw, type2) of every curves.csv row
    whose type2 mean differs from its raw mean by more than 1e-8 x
    max(1, |raw|): the paper's lossless transformation, end to end."""
    means = {}
    for row in curves.splitlines()[1:]:
        scan, metric, sv, payload, _, mean = row.split(",")
        means.setdefault((scan, metric, sv), {})[payload] = float(mean)
    return [(*key, arms["raw"], arms["type2"]) for key, arms in means.items()
            if not abs(arms["type2"] - arms["raw"]) <= 1e-8 * max(1.0, abs(arms["raw"]))]


class TestFuzz:
    """Every generated scenario file, count flag, sweep and `TRACKFUSE_SEED`
    value either runs a 1-run experiment of at most 3 scans per sweep value
    to exit code 0 inside the time bound, its raw and type2 curves equal, or
    exits 2 with an `error:` line and leaves no output directory."""

    SECONDS = 3.0

    @settings(max_examples=100, deadline=None)
    @given(text=scenario_texts(), fusion=st.sampled_from(("mda", "bp")),
           particles=count_flag("particles", ("1", "20", "50001")),
           workers=count_flag("workers", ("1", "99999999999")),
           runs=job_flags(), env_seed=seed_values())
    def test_inputs_run_or_exit_with_a_typed_error(self, tmp_path_factory, text, fusion,
                                                   particles, workers, runs, env_seed):
        tmp = tmp_path_factory.mktemp("fuzz")
        scenario, out = tmp / "fuzz.cfg", tmp / "out"
        scenario.write_text(text)
        argv = (["run", "--scenario", str(scenario), "--fusion", fusion,
                 "--payload", "raw,type2", "--out", str(out)]
                + particles + workers + runs)

        def too_long(signum, frame):
            raise RunTooLong(f"{argv} ran past {self.SECONDS} s on\n{text}")

        err = io.StringIO()
        previous = signal.signal(signal.SIGALRM, too_long)
        signal.setitimer(signal.ITIMER_REAL, self.SECONDS)
        try:
            with (contextlib.redirect_stderr(err),
                  mock.patch.dict(os.environ, {cli.ENV_SEED: env_seed})):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a count that is no integer
            rc = exc.code
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if rc == 0:
            assert not arm_disagreements((out / "curves.csv").read_text()), text
        else:
            assert rc == 2, err.getvalue()
            assert "error: " in err.getvalue().splitlines()[-1]
            assert not out.exists()
