"""Every command pinned in `perfbench/expected.json`, run in-process as
pinned and with `--seed 7` appended, still matches its pins: a drifted
status, tier, exit code, `catalog list` or `transform` text, spectrum
column, or a rejected `--seed` fails here, not only in a benchmark run."""

import importlib.util
import pathlib

import pytest

from pdmlab import cli

ORACLE_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"


def _load_oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ORACLE = _load_oracle()
EXPECTED = ORACLE.load_expected()


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_pinned_command(key, tmp_path, capsys):
    # as pinned, and with --seed appended as perfbench/run.py appends it
    for n, seed_args in enumerate(([], ["--seed", "7"])):
        args = key.split()
        report_path = tmp_path / f"report{n}.json"
        if "checks" in EXPECTED[key]:
            args += ["--json", str(report_path)]
        args += seed_args
        rc = cli.main(args)
        stdout = capsys.readouterr().out
        report = report_path.read_text() if report_path.exists() else None
        assert ORACLE.check(args, rc, stdout, report, EXPECTED) == [], args
