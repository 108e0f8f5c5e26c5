"""Output checks for one `tsvf-sim run` CSV, against exact algebra.

The checks read the `# summary` line and the rows and compare them with what
the paper's algebra says they must be, never with a stored digest, so a
deliberate change of RNG stream still passes while a wrong number does not.
Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import math

WEAK_VALUE = 1.0 + math.sqrt(2.0)  # <phi|sigma_z|psi>/<phi|psi> at post_angle pi/8


def parse_csv(text: str) -> tuple[dict[str, str], dict[str, str], list[str], list[list[str]]]:
    """Split a result file into its meta and summary records, header and rows."""
    lines = text.split("\n")
    if len(lines) < 4 or lines[-1] != "":
        raise ValueError("expected '# meta', '# summary', a header and a final newline")
    if not lines[0].startswith("# meta ") or not lines[1].startswith("# summary "):
        raise ValueError("missing '# meta' or '# summary' line")
    meta = dict(item.split("=", 1) for item in lines[0][len("# meta "):].split(" "))
    summary_text = lines[1][len("# summary "):]
    summary = dict(item.split("=", 1) for item in summary_text.split(" ")) if summary_text else {}
    header = lines[2].split(",")
    rows = [line.split(",") for line in lines[3:-1]]
    return meta, summary, header, rows


def _close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def _born(params, summary, rows, problems):
    a2, trials = float(params["alpha2"]), int(params["trials"])
    if len(rows) != trials:
        problems.append(f"{len(rows)} rows, expected trials={trials}")
    if any(r[0] != str(i) for i, r in enumerate(rows)):
        problems.append("trial column is not 0..trials-1")
    outcomes = [r[1] for r in rows]
    if any(o not in ("1", "-1") for o in outcomes):
        problems.append("outcome outside {1, -1}")
    freq = float(summary["frequency_plus"])
    stderr = float(summary["binomial_stderr"])
    if rows and not _close(freq, outcomes.count("1") / len(rows), 1e-12):
        problems.append("frequency_plus disagrees with the rows")
    if not _close(stderr, math.sqrt(a2 * (1.0 - a2) / trials), 1e-12):
        problems.append(f"binomial_stderr={stderr} is not sqrt(a2(1-a2)/trials)")
    if not abs(freq - a2) <= 4.0 * stderr:
        problems.append(f"frequency_plus={freq} outside alpha2={a2} +- 4 stderr ({stderr})")


def _weakvalue(params, summary, rows, problems):
    g = float(params["g_over_sigma"]) * float(params["sigma"])
    trials = int(params["trials"])
    wv = float(summary["weak_value_re"])
    if not abs(wv - WEAK_VALUE) <= 1e-12:
        problems.append(f"weak_value_re={wv!r} is not 1 + sqrt(2)")
    if not abs(float(summary["weak_value_im"])) <= 1e-12:
        problems.append("weak_value_im is not 0")
    accepted = int(summary["accepted"])
    if len(rows) != accepted:
        problems.append(f"{len(rows)} rows, expected accepted={accepted}")
    if not _close(float(summary["acceptance_rate"]), accepted / trials, 1e-12):
        problems.append("acceptance_rate is not accepted/trials")
    mean, stderr = float(summary["mean_over_g"]), float(summary["stderr_over_g"])
    readings = [float(r[1]) for r in rows]
    if readings and not _close(math.fsum(readings) / len(readings) / g, mean, 1e-9):
        problems.append("mean_over_g disagrees with the rows")
    if not abs(mean - WEAK_VALUE) <= 4.0 * stderr:
        problems.append(f"mean_over_g={mean} outside 1+sqrt(2) +- 4 stderr ({stderr})")


def _commutator(params, summary, rows, problems):
    brute_max, closed = int(params["brute_max"]), [int(n) for n in params["closed_Ns"]]
    if not float(summary["max_identity_error"]) <= 1e-12:
        problems.append(f"max_identity_error={summary['max_identity_error']} > 1e-12")
    brute = [r for r in rows if r[1] == "brute"]
    if [int(r[0]) for r in brute] != list(range(1, brute_max + 1)):
        problems.append("brute rows are not N = 1..brute_max")
    for n, _, scale, err in brute:
        if not abs(float(scale) - 1.0 / (2 * int(n))) <= 1e-12:
            problems.append(f"brute scale at N={n} is {scale}, not 1/(2N)")
        if not float(err) <= 1e-12:
            problems.append(f"identity error at N={n} is {err}")
    closed_rows = [r for r in rows if r[1] == "closed"]
    if [int(r[0]) for r in closed_rows] != closed:
        problems.append("closed rows are not the requested closed_Ns")
    for n, _, scale, _ in closed_rows:
        if float(scale) != 1.0 / (2.0 * int(n)):
            problems.append(f"closed scale at N={n} is {scale}, not 1/(2N)")
    if len(rows) != brute_max + len(closed):
        problems.append(f"{len(rows)} rows, expected {brute_max + len(closed)}")


def _log_ratio(params, env_size):
    c, n = float(params["c"]), int(params["n"])
    g1, g2 = float(params["gamma1"]), float(params["gamma2"])
    return 2.0 * n * (math.log(g1) - math.log(g2)) - 2.0 * (env_size - n) * math.log(c)


def _robustness(params, summary, rows, problems):
    sizes, n = [int(s) for s in params["env_sizes"]], int(params["n"])
    if [int(r[0]) for r in rows] != sizes:
        problems.append("rows are not the requested env_sizes")
    for size, n_col, log_ratio, ratio, brute in rows:
        size = int(size)
        if int(n_col) != n:
            problems.append(f"n_collapsed={n_col} at N={size}, expected {n}")
        if not _close(float(log_ratio), _log_ratio(params, size), 1e-9):
            problems.append(f"log_ratio at N={size} is {log_ratio}, not the closed form")
        if not _close(float(ratio), math.exp(float(log_ratio)), 1e-9):
            problems.append(f"ratio at N={size} is not exp(log_ratio)")
        has_oracle = size + 2 <= 14 and n >= 1
        if has_oracle != (brute != ""):
            problems.append(f"brute_ratio presence wrong at N={size}")
        elif has_oracle and not _close(float(brute), float(ratio), 1e-9):
            problems.append(f"brute_ratio={brute} differs from ratio={ratio} at N={size}")
    expected_slope = -2.0 * math.log(float(params["c"]))
    if not _close(float(summary["expected_log_slope"]), expected_slope, 1e-12):
        problems.append("expected_log_slope is not -2 ln c")
    if not _close(float(summary["fitted_log_slope"]), expected_slope, 1e-6):
        problems.append("fitted_log_slope is not -2 ln c")


def _threshold(params, summary, rows, problems):
    targets, n = [float(t) for t in params["targets"]], int(params["n"])
    if [float(r[0]) for r in rows] != targets:
        problems.append("rows are not the requested targets")
    for target, size, at, below in rows:
        target, size = float(target), int(size)
        if not float(at) >= target:
            problems.append(f"ratio at threshold N={size} is {at} < target {target}")
        if below == "":
            if size - 1 > n:
                problems.append(f"ratio below threshold N={size} is missing")
        elif not target > float(below):
            problems.append(f"ratio just below threshold N={size} is {below} >= target {target}")
    if summary["env_sizes_needed"] != ",".join(r[1] for r in rows):
        problems.append("env_sizes_needed disagrees with the rows")


def _decay(params, summary, rows, problems):
    n0, tau = float(params["n0"]), float(params["time_constant"])
    t_max, steps = float(params["t_max"]), int(params["steps"])
    if len(rows) != steps:
        problems.append(f"{len(rows)} rows, expected steps={steps}")
    for t, remaining in rows:
        if not _close(float(remaining), n0 * math.exp(-float(t) / tau), 1e-12):
            problems.append(f"remaining at t={t} is {remaining}, not n0 exp(-t/T)")
            break
    if rows and (float(rows[0][0]) != 0.0 or float(rows[-1][0]) != t_max):
        problems.append("time column does not run from 0 to t_max")
    if not _close(float(summary["final_remaining"]), n0 * math.exp(-t_max / tau), 1e-12):
        problems.append("final_remaining is not n0 exp(-t_max/T)")


def _convergence(params, summary, rows, problems):
    sizes = [int(n) for n in params["Ns"]]
    if [int(r[0]) for r in rows] != sizes:
        problems.append("rows are not the requested Ns")
    for n, residual in rows:
        if not _close(float(residual), 1.0 / math.sqrt(int(n)), 1e-12):
            problems.append(f"residual at N={n} is {residual}, not 1/sqrt(N)")
    slope = float(summary["slope"])
    if not abs(slope + 0.5) <= 0.01:
        problems.append(f"slope={slope} is not within 0.01 of -0.5")


CHECKS = {
    "born": (("trial", "outcome"), _born),
    "weakvalue": (("index", "reading"), _weakvalue),
    "commutator": (("spins", "method", "scale", "identity_error"), _commutator),
    "robustness": (("env_size", "n_collapsed", "log_ratio", "ratio", "brute_ratio"), _robustness),
    "threshold": (("target", "env_size_needed", "ratio_at_threshold", "ratio_below"), _threshold),
    "decay": (("t", "remaining"), _decay),
    "convergence": (("N", "residual"), _convergence),
}


def has_nan(text: str) -> bool:
    """True if any value in the file is NaN."""
    return any(tok.lower() == "nan" or tok.lower().endswith("=nan")
               for line in text.split("\n") for tok in line.replace(",", " ").split())


_LISTS = {"closed_Ns", "env_sizes", "targets", "Ns"}


def _meta_disagrees(meta: dict[str, str], expected: dict) -> list[str]:
    problems = []
    for key, want in expected.items():
        want = want if isinstance(want, list) else [want]
        got = meta.get(key, "").split(",")
        try:
            same = [float(x) for x in got] == [float(x) for x in want]
        except ValueError:
            same = False
        if not same:
            problems.append(f"meta {key}={meta.get(key)} but the benchmark asked for {want}")
    return problems


def check_output(experiment: str, text: str, expected: dict) -> list[str]:
    """Problems with one result file.

    `expected` holds the parameter values the benchmark asked for. The meta
    line must echo them; the checks then read every parameter from it.
    """
    if has_nan(text):
        return ["output contains NaN"]
    try:
        meta, summary, header, rows = parse_csv(text)
        expected_header, check = CHECKS[experiment]
        if meta.get("experiment") != experiment:
            return [f"meta says experiment={meta.get('experiment')}, expected {experiment}"]
        if tuple(header) != expected_header:
            return [f"header {header} is not {list(expected_header)}"]
        if any(len(r) != len(header) for r in rows):
            return ["a row has the wrong number of columns"]
        problems = _meta_disagrees(meta, expected)
        if problems:
            return problems
        params = {k: (v.split(",") if k in _LISTS else v) for k, v in meta.items()}
        check(params, summary, rows, problems)
        return problems
    except (KeyError, ValueError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
