"""The exit-code contract over the golden runs, varied one value at a time.

Each golden run (test_golden.RUNS), shrunk to S = 50, M = 19, --null-s 300
and --sims 200, has one value replaced at a time: a numeric flag, one
element of a comma list, or one k=v entry of --model-params or
--approximator-params. Further rows name cases found by earlier scans.
Each golden run that reads an INI file also runs with one numeric value of
that file replaced at a time (one element of a | list), by every value the
flag scan tries, and with no --seed flag, so a config seed is read.
Every run must exit 0, 2 or 3 with no exception escaping main, write no
warning, and leave a report (if any) that a strict JSON parser accepts; an
exit 2 leaves none. Each shrunk golden run also takes every seed in SEEDS,
which must exit as SEEDS says. A failure names its argv.
"""

import contextlib
import io
import json
import signal
import warnings

import pytest

from simflow.cli import main
from test_golden import CONFIG_ONLY, INPUTS, RUNS, write_inputs

SHRINK = {"--S": 50, "--M": 19, "--null-s": 300, "--sims": 200}
COUNTS = ("--S", "--M", "--null-s", "--sims", "--max-iter", "--bins")
# values a counted flag, another numeric flag and a k=v entry take in turn
COUNT_VALUES = ("0", "-1", "1", "2", "2.5", "nan", "inf", "x", "1e154")
NUMBER_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e-300", "1e300", "2.5", "-0.0", "true",
                 "x")
ENTRY_VALUES = ("0", "-1", "nan", "inf", "1e-300", "1e-154", "1e154", "2.5", "true", "1e-8",
                "4e18")
# --seed values and the exit code each must give: any integer >= 0 is a seed
SEEDS = {**dict.fromkeys(["0", "1", str(2**32), str(2**63), str(2**64 + 5), str(10**30)], 0),
         **dict.fromkeys(["-1", "2.5", "x"], 2)}
# a run that takes longer is a hang the contract does not allow
TIMEOUT_S = 20

TWO_GROUP = ["--model", "lognormal-two-group"]
TWO_GROUP_DATA = [*TWO_GROUP, "--data", "grouped.csv"]
# rows found at earlier scans: exp(800) overflows a simulated two-group
# dataset (exit 1, or warnings), and exp(700) overflows a variance of one
EXTRA = {
    "two-group-overflow": [
        ["power", *TWO_GROUP, "--theta-star", "800,0", "--theta0", "0,0",
         "--statistic", "mean-diff", "--S", "20", "--null-s", "100"],
        ["accuracy", *TWO_GROUP, "--theta-star", "800,0", "--S", "20"],
        ["test", *TWO_GROUP_DATA, "--theta0", "800,0", "--statistic", "mean-diff", "--S", "200"],
        ["ppc", *TWO_GROUP_DATA, "--theta-hat", "800,0", "--statistic", "mean-diff",
         "--S", "200"],
        ["ppc", *TWO_GROUP_DATA, "--theta-hat", "700,0", "--statistic", "pooled-t",
         "--S", "200"],
    ],
    # stored reports a figure cannot be drawn from (ZeroDivisionError, exit 1)
    "render-unreadable": [
        ["render", "--report", "sbc-bins-0.json"],
        ["render", "--report", "test-edges-0-0.json"],
    ],
}


def _numbers(text: str) -> list[str] | None:
    """text's comma-separated parts if each is a number, else None."""
    parts = text.split(",")
    try:
        [float(p) for p in parts]
    except ValueError:
        return None
    return parts


def _variants(argv: list[str]) -> list[list[str]]:
    """argv shrunk, then argv with one value replaced, for every value."""
    argv = list(argv)
    for i, arg in enumerate(argv[:-1]):
        if arg in SHRINK and int(argv[i + 1]) > SHRINK[arg]:
            argv[i + 1] = str(SHRINK[arg])
    rows = [argv]
    for i, arg in enumerate(argv):
        if arg.startswith("--") and "=" in arg:       # --region=-1,1
            flag, value = arg.split("=", 1)
            prefix = f"{flag}="
        elif i and argv[i - 1].startswith("--") and "=" not in argv[i - 1]:
            flag, value, prefix = argv[i - 1], arg, ""
        else:
            continue

        def put(text, i=i, prefix=prefix):
            rows.append([*argv[:i], prefix + text, *argv[i + 1:]])

        if flag in ("--model-params", "--approximator-params"):
            entries = value.split(",")
            for j, entry in enumerate(entries):
                key = entry.partition("=")[0]
                for v in ENTRY_VALUES:
                    put(",".join([*entries[:j], f"{key}={v}", *entries[j + 1:]]))
            continue
        head, colon, tail = value.rpartition(":")     # --sampling normal:0.28,0.28
        parts = _numbers(tail)
        if parts is None:
            continue
        values = COUNT_VALUES if flag in COUNTS else NUMBER_VALUES
        for j in range(len(parts)):
            for v in values:
                put(head + colon + ",".join([*parts[:j], v, *parts[j + 1:]]))
    return [list(row) for row in dict.fromkeys(map(tuple, rows))]    # each once, in order


SCAN = {label: _variants(argv) for label, argv in RUNS.items()} | EXTRA

# the golden runs that read an INI file, and that file
CONFIGS = {label: argv[argv.index("--config") + 1] for label, argv in RUNS.items()
           if "--config" in argv}
# every value the flag scan tries, each once
CONFIG_VALUES = tuple(dict.fromkeys(COUNT_VALUES + NUMBER_VALUES + ENTRY_VALUES))


def _config_variants(text: str) -> list[tuple[str, str]]:
    """(the changed line, the INI text) with one numeric value replaced, for
    every value: one element at a time of a | list."""
    lines = text.splitlines(keepends=True)
    rows = []
    for i, line in enumerate(lines):
        key, eq, value = line.partition("=")
        parts = _numbers(value.strip().replace("|", ",")) if eq else None
        if parts is None:
            continue
        for j in range(len(parts)):
            for v in CONFIG_VALUES:
                changed = f"{key.strip()} = {'|'.join([*parts[:j], v, *parts[j + 1:]])}"
                rows.append((changed, "".join([*lines[:i], changed + "\n", *lines[i + 1:]])))
    return rows


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The golden inputs, the sbc report render reads, and two stored
    reports no figure can be drawn from."""
    workdir = tmp_path_factory.mktemp("scan")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        write_inputs(workdir)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*RUNS["sbc"], "--out", "sbc", "--formats", "json"]) == 0
            assert main([*RUNS["test"], "--out", "test", "--formats", "json"]) == 0
    report = json.loads((workdir / "sbc" / "report.json").read_text())
    for target in report["results"]["targets"].values():
        target["bins"] = 0
    (workdir / "sbc-bins-0.json").write_text(json.dumps(report))
    report = json.loads((workdir / "test" / "report.json").read_text())
    report["results"]["null_histogram"].update(edges=[0, 0], counts=[2000])
    (workdir / "test-edges-0-0.json").write_text(json.dumps(report))
    return workdir


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


class _Hung(BaseException):
    """Raised by the alarm: not an Exception, so main cannot report it as a
    failed run."""


def _breach(argv: list[str], out, seed: str | None = "5", exits=(0, 2, 3)) -> str | None:
    """How main(argv) at seed (None: no --seed flag) breaks the contract, or None."""

    def hung(signum, frame):
        raise _Hung

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(TIMEOUT_S)
    err = io.StringIO()
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            try:
                seeded = [] if seed is None else ["--seed", seed]
                rc = main([*argv, *seeded, "--out", str(out), "--formats", "json"])
            except SystemExit as exc:     # argparse refuses a flag's value
                rc = exc.code
    except _Hung:
        return f"ran past {TIMEOUT_S} s"
    except Exception as exc:  # noqa: BLE001 - the breach is the escape
        return f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    if rc not in exits:
        return f"exit {rc}"
    if caught or "warning" in err.getvalue().lower():
        return f"warned: {[str(w.message) for w in caught] or err.getvalue()}"
    path = out / "report.json"
    if rc == 2 and path.exists():
        return "exit 2 wrote a report"
    if path.exists():
        try:
            json.loads(path.read_text(), parse_constant=_refuse)
        except ValueError as exc:
            return f"report is not strict JSON: {exc}"
    return None


@pytest.mark.parametrize("label", sorted(SCAN))
def test_every_variant_keeps_the_exit_code_contract(workdir, monkeypatch, label):
    monkeypatch.chdir(workdir)
    breaches = []
    for i, argv in enumerate(SCAN[label]):
        breach = _breach(argv, workdir / "scan" / label / str(i))
        if breach:
            breaches.append(f"{' '.join(argv)}: {breach}")
    assert not breaches, "\n".join(breaches)


@pytest.mark.parametrize("label", sorted(RUNS))
def test_every_seed_keeps_the_exit_code_contract(workdir, monkeypatch, label):
    monkeypatch.chdir(workdir)
    breaches = []
    for seed, code in SEEDS.items():
        breach = _breach(SCAN[label][0], workdir / "seeds" / label / seed, seed, (code,))
        if breach:
            breaches.append(f"--seed {seed}: {breach}")
    assert not breaches, "\n".join(breaches)


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_every_config_value_keeps_the_exit_code_contract(workdir, monkeypatch, label):
    monkeypatch.chdir(workdir)
    monkeypatch.delenv("SIMFLOW_SEED", raising=False)
    argv, name = SCAN[label][0], CONFIGS[label]
    breaches = []
    for i, (changed, text) in enumerate(_config_variants(INPUTS[name])):
        run = workdir / "config" / label / str(i)
        run.mkdir(parents=True)
        (run / name).write_text(text)
        breach = _breach([str(run / name) if arg == name else arg for arg in argv],
                         run / "out", seed=None)
        if breach:
            breaches.append(f"{name}: {changed}: {breach}")
    assert not breaches, "\n".join(breaches)


def test_the_scan_covers_every_golden_run():
    assert SCAN.keys() >= RUNS.keys() and CONFIG_ONLY <= SCAN.keys()
    assert sum(len(rows) for rows in SCAN.values()) > 1000
    # every INI file a golden run reads, with each of its numeric values varied
    assert sorted(CONFIGS.values()) == sorted(name for name in INPUTS if name.endswith(".ini"))
    assert sum(len(_config_variants(INPUTS[name])) for name in CONFIGS.values()) > 300
