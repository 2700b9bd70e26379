"""Seeded inputs for the benchmark workloads.

Each workload's stream is drawn from `--seed` with numpy's PCG64 and written
in the package's documented stream formats (text: "# n=<n>" header then
"<i> <v>" lines; binary: magic, uint64 n, packed (uint32 i, int64 v)
records). The reference values the correctness checks need -- exact F1 and
the net frequency vector, both from `np.bincount` -- are computed here from
the generated arrays, never by the package under test.

Run as a script it writes one workload's files into a directory; the
benchmark does that in a child process so that generation neither counts
towards the timed sections nor towards the measured process's peak memory.

    python3 benchmark/inputs.py --workload zipf-text-report --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass

import numpy as np

BINARY_MAGIC = b"F1SKBIN\x00"
RECORD_DTYPE = np.dtype([("i", "<u4"), ("v", "<i8")])


@dataclass(frozen=True)
class Spec:
    """Input make-up of one workload."""

    dist: str          # "zipf" (exponent 1.1, insert-only) or "uniform-turnstile"
    n: int             # domain size
    m: int             # record count
    binary: bool       # stream file format
    query_every: int   # record-monitor: flush + estimate every this many records


SPECS = {
    "zipf-text-report": Spec("zipf", n=10_000, m=100_000, binary=False, query_every=0),
    "churn-binary-report": Spec("uniform-turnstile", n=2_000, m=200_000, binary=True,
                                query_every=0),
    "record-monitor": Spec("zipf", n=10_000, m=40_000, binary=True, query_every=4_000),
}

ZIPF_EXPONENT = 1.1


def draw(spec: Spec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The workload's records as aligned int64 (items, deltas) arrays."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    if spec.dist == "zipf":
        weights = 1.0 / np.arange(1, spec.n + 1, dtype=np.float64) ** ZIPF_EXPONENT
        items = rng.choice(spec.n, size=spec.m, p=weights / weights.sum()) + 1
        deltas = np.ones(spec.m, dtype=np.int64)
    elif spec.dist == "uniform-turnstile":
        items = rng.integers(1, spec.n + 1, size=spec.m)
        deltas = np.where(rng.integers(0, 2, size=spec.m) == 1, 1, -1)
    else:
        raise ValueError(f"unknown distribution {spec.dist!r}")
    return items.astype(np.int64), deltas.astype(np.int64)


def net_frequencies(n: int, items: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Exact frequency vector f[0..n-1] of item 1..n."""
    return np.bincount(items - 1, weights=deltas, minlength=n).astype(np.int64)


def write_text(path: str, n: int, items: np.ndarray, deltas: np.ndarray) -> None:
    body = "".join(f"{i} {v}\n" for i, v in zip(items.tolist(), deltas.tolist()))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# n={n}\n")
        fh.write(body)


def write_binary(path: str, n: int, items: np.ndarray, deltas: np.ndarray) -> None:
    records = np.empty(items.size, dtype=RECORD_DTYPE)
    records["i"] = items
    records["v"] = deltas
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(np.array(n, dtype="<u8").tobytes())
        fh.write(records.tobytes())


def stream_path(out_dir: str, workload: str) -> str:
    return os.path.join(out_dir, workload + (".bin" if SPECS[workload].binary else ".txt"))


def reference_path(out_dir: str, workload: str) -> str:
    return os.path.join(out_dir, workload + ".ref.npz")


def write_inputs(workload: str, seed: int, out_dir: str) -> None:
    """Write the stream file and its reference values for one workload."""
    spec = SPECS[workload]
    items, deltas = draw(spec, seed)
    writer = write_binary if spec.binary else write_text
    writer(stream_path(out_dir, workload), spec.n, items, deltas)
    freqs = net_frequencies(spec.n, items, deltas)
    query_at = (np.arange(spec.query_every, spec.m + 1, spec.query_every)
                if spec.query_every else np.zeros(0, dtype=np.int64))
    prefix_f1 = np.array([np.abs(net_frequencies(spec.n, items[:k], deltas[:k])).sum()
                          for k in query_at], dtype=np.int64)
    np.savez(reference_path(out_dir, workload),
             exact_f1=np.abs(freqs).sum(),
             distinct=np.unique(items).size,
             net_items=np.flatnonzero(freqs) + 1,
             net_values=freqs[freqs != 0],
             query_at=query_at,
             prefix_f1=prefix_f1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
