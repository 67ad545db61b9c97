"""Self-test of the output checks: on a small chain (2^12 trades), the
checks pass on the files the CLI wrote, and fail once one digit of a tape
price, of a curve value or of a frontier cost is corrupted.

    python3 perfbench/run.py --self-test
"""

import os
import shutil

import checks
import workloads

N_SMALL = 1 << 12
SEED = 7


def corrupt_digit(field: str) -> str:
    """Change the third significant digit of a decimal number by 5."""
    seen = 0
    for i, ch in enumerate(field):
        if ch.isdigit() and (seen or ch != "0"):
            seen += 1
            if seen == 3:
                return field[:i] + str((int(ch) + 5) % 10) + field[i + 1:]
        elif ch in "eE":
            break
    raise ValueError(f"no third significant digit in {field!r}")


def corrupt_csv(path: str, row: int, column: int):
    """Corrupt one field of a CSV in place; row 1 is the first data row."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    fields = lines[row].split(",")
    fields[column] = corrupt_digit(fields[column])
    lines[row] = ",".join(fields)
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def tape_checks(out: str):
    stem = os.path.join(out, f"tape_seed{SEED}")
    tape = checks.read_tape(stem + ".csv", N_SMALL)
    return checks.check_curves(tape, stem)


def frontier_check(out: str):
    rows = checks.read_json(os.path.join(out, "manip_report.json"))["rows"]
    return checks.check_frontier(os.path.join(out, "frontier.csv"), rows)


def expect(label: str, fn, out: str, should_pass: bool) -> bool:
    try:
        detail = fn(out)
        passed = True
    except Exception as exc:  # any failure counts, as in Checks.run
        detail, passed = f"{type(exc).__name__}: {exc}", False
    ok = passed == should_pass
    print(f"  {label}: check {'passed' if passed else 'failed'} "
          f"({detail}) -> {'as expected' if ok else 'UNEXPECTED'}")
    return ok


def main(invoke, out_root: str, deadline: float) -> int:
    run_dir = os.path.join(out_root, f"selftest-{os.getpid()}")
    out = os.path.join(run_dir, "files")
    os.makedirs(out)
    stem = os.path.join(out, f"tape_seed{SEED}")
    try:
        steps = [
            ("simulate", workloads.chain_simulate_args(SEED, N_SMALL) + ["--out-dir", out]),
            ("measure", ["measure", stem + ".csv", "--out-dir", out]),
            ("manip", ["manip", "--betas", "0,0.5", "--psis", "0.5,1", "--out-dir", out]),
        ]
        for name, argv in steps:
            rc = invoke(argv, run_dir, name, deadline)["rc"]
            # measure exits 3 when only the gamma fit fails, which 2^12 trades
            # allow; the curves the checks read are written all the same
            if rc != 0 and not (name == "measure" and rc == 3):
                print(f"selftest: {name} exited {rc}")
                return 1
        results = [expect("clean tape and curves", tape_checks, out, True),
                   expect("clean frontier", frontier_check, out, True)]
        corruptions = [
            ("tape price, row 2049", stem + ".csv", 2049, 3, tape_checks),
            ("response value, lag 16", stem + "_response.csv", 16, 1, tape_checks),
            ("frontier cost, concave permanent cell", os.path.join(out, "frontier.csv"),
             1, 2, frontier_check),
        ]
        for label, path, row, column, fn in corruptions:
            backup = path + ".orig"
            shutil.copyfile(path, backup)
            corrupt_csv(path, row, column)
            results.append(expect(f"corrupted {label}", fn, out, False))
            os.replace(backup, path)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"selftest: {'ok' if all(results) else 'FAILED'}")
    return 0 if all(results) else 1
