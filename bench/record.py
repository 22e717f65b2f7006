"""Record the golden outputs the benchmark checks against.

    python3 bench/record.py

Run from the root of a checkout of the code whose outputs are the reference.
Writes bench/golden/: per cli_cold op its stdout bytes and exit code, per
closed_forms case its rendered CSV, and per finite_p case the robust values
(and price) that later runs must match within workloads.REF_TOL. Every value
of every stated parameter set is recorded.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from workloads import GOLDEN, ROOT  # noqa: E402


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from robustfolio import cli

    cli_dir = GOLDEN / "cli_cold"
    cli_dir.mkdir(parents=True, exist_ok=True)
    codes = {}
    for name in workloads.CLI_OPS:
        out, codes[name], _ = workloads.spawn(workloads.cli_argv(name))
        (cli_dir / f"{name}.stdout").write_bytes(out)
    (cli_dir / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")

    cf_dir = GOLDEN / "closed_forms"
    cf_dir.mkdir(parents=True, exist_ok=True)
    for name, command, cfg, preset in workloads.closed_form_cases(None):
        cli.validate_config(cfg)
        (cf_dir / f"{name}.csv").write_bytes(cli.emit(cli.run(command, cfg, preset)).encode())

    refs = {}
    for name, family, value in workloads.finite_p_cases(None):
        spec, radii, payoff = workloads.finite_p_instance(family, value)
        out = workloads.solve_finite_p(family, spec, radii, payoff)
        refs[name] = {k: v for k, v in out.items() if k != "cost"}
    (GOLDEN / "finite_p.json").write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
