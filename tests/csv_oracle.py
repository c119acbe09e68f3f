"""The per-row ``csv.writer`` loops that ``core.write_csv`` replaced: one
generic row loop and each artifact's own loop as it was written.  They are
the byte-for-byte reference for the block writer.

Run as a script, it writes the reference for ``simulate``'s trajectory.csv:

    PYTHONPATH=src python tests/csv_oracle.py fig1 5 fig1-repr.csv [--zero-noise]
"""

import csv


def write_csv_rows(fobj, header, columns) -> None:
    """One ``writerow`` per index: ``repr(float(x))`` per float, str as is,
    an empty field past a column's end."""
    w = csv.writer(fobj)
    w.writerow(header)
    for k in range(max(len(c) for c in columns)):
        w.writerow(["" if k >= len(c) else c[k] if isinstance(c[k], str) else repr(float(c[k]))
                    for c in columns])


def trajectory_rows(record, fobj) -> None:
    w = csv.writer(fobj)
    w.writerow(["t", "mean_jz", "var_jz", "bloch_length", "y", "d_xi"])
    n = len(record.times)
    for k in range(n):
        step = [repr(float(record.y[k])), repr(float(record.d_xi[k]))] if k < n - 1 else ["", ""]
        w.writerow([repr(float(record.times[k])), repr(float(record.mean_jz[k])),
                    repr(float(record.var_jz[k])), repr(float(record.bloch[k]))] + step)


def ensemble_rows(stats, fobj) -> None:
    w = csv.writer(fobj)
    w.writerow(["t", "estimator", "mse", "stderr", "mean_b", "predicted_v22"])
    for name in stats.estimators:
        for i, t in enumerate(stats.times):
            w.writerow([repr(float(t)), name, repr(float(stats.mse[name][i])),
                        repr(float(stats.stderr[name][i])), repr(float(stats.mean_b[name][i])),
                        repr(float(stats.predicted_v22[i]))])


def scaling_rows(result, fobj) -> None:
    w = csv.writer(fobj)
    w.writerow(["j_total", "estimator", "rms_error"])
    for name, arr in result.rms.items():
        for j, r in zip(result.j_values, arr):
            w.writerow([repr(float(j)), name, repr(float(r))])
    for j, r in zip(result.j_values, result.shotnoise_rms):
        w.writerow([repr(float(j)), "shotnoise", repr(float(r))])


def threshold_rows(times, curves, fobj) -> None:
    w = csv.writer(fobj)
    w.writerow(["t", "delta_b", "source"])
    for source, delta_b in curves.items():
        for t, db in zip(times, delta_b):
            w.writerow([repr(float(t)), repr(float(db)), source])


def deviation_rows(dev, fobj) -> None:
    w = csv.writer(fobj)
    w.writerow(["t", "d_mean", "d_var"])
    for t, dm, dv in zip(dev.times, dev.d_mean, dev.d_var):
        w.writerow([repr(float(t)), repr(float(dm)), repr(float(dv))])


if __name__ == "__main__":
    import argparse

    from qkfmag.config import load_preset
    from qkfmag.dynamics import simulate_trajectory
    from qkfmag.rng import substream

    ap = argparse.ArgumentParser(description="write trajectory_rows of a preset's record, as "
                                             "simulate draws it at a seed")
    ap.add_argument("preset")
    ap.add_argument("seed", type=int)
    ap.add_argument("out")
    ap.add_argument("--zero-noise", action="store_true")
    args = ap.parse_args()
    cfg = load_preset(args.preset)
    record = simulate_trajectory(cfg.params, cfg.make_grid(), substream(args.seed, 0),
                                 zero_noise=args.zero_noise)
    with open(args.out, "w", newline="") as f:
        trajectory_rows(record, f)
