"""Output checks for the family CSVs a workload writes.

At the reference seed every number is compared with the stored reference
CSV. beampair writes floats with 9 significant digits, so two runs whose
floats differ only in the last bits can still print numbers one unit apart
in the ninth digit; that much is tolerated and nothing more. At any other
seed only invariants are checked: the reference's columns and row keys,
every value a finite number, and nonnegative columns nonnegative.
"""

import csv
import io
import math

SIG_DIGITS = 9
NONNEGATIVE = ("maee_deg", "ci95", "mean_amplitude", "rel_diff", "value_deg")


def read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty CSV")
    return rows[0], rows[1:]


def last_digit_unit(ref: float) -> float:
    """One unit in the last printed digit of ``ref`` at SIG_DIGITS."""
    if ref == 0.0:
        return 0.0
    return 10.0 ** (math.floor(math.log10(abs(ref))) - (SIG_DIGITS - 1))


def compare_values(got: float, ref: float) -> tuple[float, bool]:
    """Relative deviation of ``got`` from ``ref`` and whether it stays within
    one unit of the ninth significant digit."""
    diff = abs(got - ref)
    rel = 0.0 if diff == 0.0 else (math.inf if ref == 0.0 else diff / abs(ref))
    # the slack absorbs the rounding of the subtraction itself
    return rel, diff <= last_digit_unit(ref) + 1e-15 * abs(ref)


def check_table(text: str, ref_text: str, keys: tuple[str, ...],
                compare: bool) -> tuple[list[str], float]:
    """Problems found in one table, and the largest relative deviation from
    the reference (0.0 when ``compare`` is false)."""
    header, rows = read_csv(text)
    ref_header, ref_rows = read_csv(ref_text)
    if header != ref_header:
        return [f"columns {header} differ from reference {ref_header}"], 0.0
    key_idx = [header.index(k) for k in keys]
    row_keys = [[r[i] for i in key_idx] for r in rows]
    if row_keys != [[r[i] for i in key_idx] for r in ref_rows]:
        return ["row keys differ from reference"], 0.0
    problems, worst = [], 0.0
    for row, ref_row in zip(rows, ref_rows):
        for i, col in enumerate(header):
            if i in key_idx:
                continue
            try:
                value = float(row[i])
            except ValueError:
                problems.append(f"{col}={row[i]!r} is not a number")
                continue
            if not math.isfinite(value):
                problems.append(f"{col}={row[i]} is not finite")
            elif col in NONNEGATIVE and value < 0:
                problems.append(f"{col}={row[i]} is negative")
            if compare:
                rel, ok = compare_values(value, float(ref_row[i]))
                worst = max(worst, rel)
                if not ok:
                    problems.append(f"{col}={row[i]} deviates from reference "
                                    f"{ref_row[i]} by {rel:.3g} relative")
    return problems, worst
