#!/usr/bin/env python3
"""Time every subcommand with the cyclic garbage collector running against ``cli.main``, which pauses it.

The inputs are those of ``desk-decode`` in ``perfbench/``, drawn from the
desk corpus (``tests/deskdata.py``): ``--pairs`` training pairs,
``--sentences`` dev sentences with a gold M2 file, ``--tune`` tune
sentences and ``--mono`` raw sentences; members are baseline taggers
``cw=0,1,2``.  Each command runs two ways in one process: "on" parses its
arguments and calls ``args.func`` with the collector running, as ``main``
did before it paused it; "paused" calls ``cli.main``.  Both must write the
same files and print the same text, which the script checks.

For the fastest of ``--repeats`` runs of each way it prints the seconds, the
collections per generation and the seconds spent collecting, both read
through ``gc.callbacks``: the tracer in ``perfbench/`` does not see this
layer.  "paused" counts ``main``'s one young collection of the parser.

On a 2-vCPU Xeon with Python 3.11 (best of 9, two runs) the collector,
left running, spent up to 2.1 ms per command in up to 31 collections, and the
paused training, decoding and scoring commands ran 1.03-1.07x as fast.
``apply`` and ``filter``, which allocate too little to trigger a
collection, ran 0.90-1.02x: they pay only for the parser's collection
(0.08 ms).  The whole set ran 1.04-1.06x.  One process keeps a small heap,
so these best runs meet no gen-2 collection; ``perfbench`` rounds do.

Usage::

    python benchmarks/bench_gc.py [--pairs 600] [--sentences 1000] [--tune 300] [--mono 500] [--repeats 9] [--seed 0]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import sys
import tempfile
import time
from pathlib import Path

from gec_editkit import cli, extract_edits, write_m2, write_sentences, write_tsv_corpus
from gec_editkit.corpus import M2Block, M2Edit

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from deskdata import make_corpus  # noqa: E402


class Collections:
    """Collections per generation and seconds spent in them, counted through gc.callbacks while active."""

    def __init__(self) -> None:
        self.per_generation = [0, 0, 0]
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.per_generation[info["generation"]] += 1

    def __enter__(self) -> "Collections":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def collector_on(argv: list[str]) -> int:
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


def write_inputs(work: Path, args: argparse.Namespace) -> dict[str, list[str]]:
    """The desk inputs under ``work``; one argv per command, by name."""
    train, dev, tune, mono = (make_corpus(n, args.seed + k) for k, n in
                              enumerate((args.pairs, args.sentences, args.tune, args.mono)))
    write_tsv_corpus(work / "train.tsv", train)
    write_sentences(work / "train.src.txt", [s for s, _ in train])
    write_sentences(work / "dev.txt", [s for s, _ in dev])
    write_sentences(work / "mono.txt", [s for s, _ in mono])
    for name, pairs in (("dev.m2", dev), ("tune.m2", tune)):
        write_m2(work / name, [M2Block(s, {0: tuple(map(M2Edit, extract_edits(s, t)))}) for s, t in pairs])
    w = str(work)
    vocab = f"{w}/vocab.txt"
    members = [f"baseline={w}/train.tsv,cw={cw}" for cw in range(3)]
    member_flags = [x for spec in members for x in ("--member", spec)]
    corrected = [f"{w}/correct.cw{cw}.txt" for cw in range(3)]
    commands = {"build-vocab": ["build-vocab", "--input", f"{w}/train.tsv", "--output", vocab],
                "encode": ["encode", "--input", f"{w}/train.tsv", "--output", f"{w}/tags.txt"],
                "apply": ["apply", "--source", f"{w}/train.src.txt", "--tags", f"{w}/tags.txt",
                          "--output", f"{w}/applied.txt"]}
    for spec, out in zip(members, corrected):
        commands[f"correct {spec.rsplit(',', 1)[1]}"] = [
            "correct", "--input", f"{w}/dev.txt", "--output", out, "--vocab", vocab, "--tagger", spec]
    commands.update({
        "average": ["ensemble", "--mode", "average", "--source", f"{w}/dev.txt", "--output", f"{w}/average.txt",
                    "--vocab", vocab, *member_flags],
        "vote": ["ensemble", "--mode", "vote", "--source", f"{w}/dev.txt", "--output", f"{w}/vote.txt",
                 *[x for out in corrected for x in ("--member", out)]],
        "score": ["score", "--hyp", f"{w}/average.txt", "--gold", f"{w}/dev.m2"],
        "tune": ["tune", "--gold", f"{w}/tune.m2", "--vocab", vocab, "--tagger", members[1], "--trials", "6"],
        "distill": ["distill", "--input", f"{w}/mono.txt", "--output", f"{w}/distill.tsv", "--vocab", vocab,
                    *member_flags, "--mode", "vote", "--limit", str(args.mono)],
        "filter": ["filter", "--input", f"{w}/train.tsv", "--output", f"{w}/filtered.tsv"],
    })
    return commands


def best_run(run, argv: list[str], work: Path, repeats: int) -> tuple[float, Collections, dict[str, bytes], str]:
    """The fastest of ``repeats`` runs: its seconds and collections, the files in ``work`` and what it printed."""
    best = None
    for _ in range(repeats):
        out = io.StringIO()
        with Collections() as collections, contextlib.redirect_stdout(out):
            start = time.perf_counter()
            code = run(argv)
            took = time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        if best is None or took < best[0]:
            best = (took, collections, out.getvalue())
    files = {path.name: path.read_bytes() for path in sorted(work.iterdir())}
    return best[0], best[1], files, best[2]


def describe(seconds: float, collections: Collections) -> str:
    gens = ", ".join(f"gen{g} {n}" for g, n in enumerate(collections.per_generation))
    return f"{seconds:.4f} s ({gens}; gc {collections.seconds * 1e3:.2f} ms)"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=600)
    parser.add_argument("--sentences", type=int, default=1000)
    parser.add_argument("--tune", type=int, default=300)
    parser.add_argument("--mono", type=int, default=500)
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if not gc.isenabled():
        raise SystemExit("the collector is disabled in this interpreter; nothing to compare")

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        commands = write_inputs(work, args)
        totals = [0.0, 0.0]
        for name, argv in commands.items():
            on = best_run(collector_on, argv, work, args.repeats)
            paused = best_run(cli.main, argv, work, args.repeats)
            if on[2:] != paused[2:]:
                raise SystemExit(f"{name}: the two runs wrote or printed different output")
            totals[0] += on[0]
            totals[1] += paused[0]
            print(f"{name}: on {describe(*on[:2])}, paused {describe(*paused[:2])}, speedup {on[0] / paused[0]:.2f}x")
        print(f"all {len(commands)} commands: on {totals[0]:.4f} s, paused {totals[1]:.4f} s, "
              f"speedup {totals[0] / totals[1]:.2f}x")


if __name__ == "__main__":
    main()
