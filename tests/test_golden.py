"""Golden outputs of `check-decreasing`, `complete` and `fill-sphere`.

Each case runs the CLI in-process on a built-in presentation and compares
the exit code and stdout, byte for byte, with a gzipped file under
tests/data/golden.  A change that must not alter any output (a speed-up,
a refactor) keeps these passing as they are.  A change that alters output
on purpose regenerates the cases it alters with

    PYTHONPATH=src python tests/test_golden.py [CASE ...]

which rewrites the named cases (keys of CASES), or every case when none is
named, and shows the difference in its review.
"""

import contextlib
import gzip
import io
import sys
import tempfile
from pathlib import Path

import pytest

from polyco import fixtures, serialize_polygraph
from polyco.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

CASES = {
    "check_decreasing_braid_7":
        ("check-decreasing", "braid", "--max-word-len", "7"),
    "check_decreasing_two_letters_6":
        ("check-decreasing", "two_letters", "--max-word-len", "6",
         "--peiffer-len-bound", "6"),
    "check_decreasing_convergent_braid_nf_6":
        ("check-decreasing", "convergent_braid", "--label", "nf",
         "--max-word-len", "6"),
    "complete_braid_8":
        ("complete", "braid", "--max-word-len", "8"),
    "complete_convergent_braid_nf_7":
        ("complete", "convergent_braid", "--label", "nf",
         "--max-word-len", "7"),
    "complete_no_fdt_5":
        ("complete", "no_fdt", "--max-word-len", "5"),
}
# the sphere file each `fill-sphere` case reads: the spheres of
# test_fill_parallel_sphere and test_fill_zigzag_sphere, one drawn by
# test_10c_sphere_filling_boundary_soundness, and the 60-step loop
# (alpha;beta)^30 at s t s, whose forward side is contracted and whose
# inverse is straightened
SPHERES = {
    "fill_sphere_braid_parallel":
        "1|alpha|t => s|beta|1 ; s|alpha|1 ; 1|alpha|t",
    "fill_sphere_braid_zigzag":
        "1|alpha|t => s|beta|1 ; s|beta|1- ; 1|alpha|t",
    "fill_sphere_braid_detours":
        "t t s t|alpha|1 ; t|beta|t s t ; t|beta|t s t- ; t|beta|t s t => "
        "t t s|beta|s ; t t s|alpha|s ; t t s|alpha|s- ; t t s|alpha|s ; "
        "t|beta|s t s ; t s t s|alpha|1",
    "fill_sphere_braid_loop_60":
        " ; ".join(["1|alpha|1 ; 1|beta|1"] * 30) + " => id s t s",
    "fill_sphere_braid_loop_60_inverse":
        "id s t s => " + " ; ".join(["1|beta|1- ; 1|alpha|1-"] * 30),
}
CASES.update((case, ("fill-sphere", "braid")) for case in SPHERES)
# text output of `complete` repeats what its json holds; that of
# `check-decreasing` prints the first context violation, which json omits,
# and that of `fill-sphere` is the one a reader of a filling sees
RUNS = ([(case, "json") for case in CASES]
        + [(case, "text") for case in CASES
           if not case.startswith("complete")])


def _run(workdir: Path, case: str, fmt: str) -> bytes:
    command, poly, *options = CASES[case]
    path = workdir / f"{poly}.poly"
    if not path.exists():
        path.write_text(serialize_polygraph(fixtures.BUILTIN[poly]()))
    if case in SPHERES:
        sphere = workdir / f"{case}.sphere"
        sphere.write_text(f"sphere : {SPHERES[case]}\n")
        options = [str(sphere), *options]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([command, str(path), *options, "--format", fmt])
    return f"exit {code}\n{buf.getvalue()}".encode()


def _golden(case: str, fmt: str) -> Path:
    return GOLDEN / f"{case}.{fmt}.gz"


@pytest.mark.parametrize("case,fmt", RUNS)
def test_output_matches_golden(case, fmt, tmp_path):
    got = _run(tmp_path, case, fmt)
    want = gzip.decompress(_golden(case, fmt).read_bytes())
    if got != want:
        got_lines, want_lines = got.splitlines(), want.splitlines()
        first = next((i for i, (a, b) in enumerate(zip(got_lines,
                                                       want_lines))
                      if a != b), min(len(got_lines), len(want_lines)))
        pytest.fail(f"{case} --format {fmt} differs from its golden output "
                    f"at line {first + 1}: got "
                    f"{got_lines[first:first + 1]!r}, want "
                    f"{want_lines[first:first + 1]!r}")


def write_goldens(cases=()) -> None:
    unknown = set(cases) - set(CASES)
    if unknown:
        sys.exit(f"unknown cases: {', '.join(sorted(unknown))}")
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case, fmt in RUNS:
            if cases and case not in cases:
                continue
            data = gzip.compress(_run(Path(tmp), case, fmt), mtime=0)
            _golden(case, fmt).write_bytes(data)
            print(f"wrote {_golden(case, fmt)}", file=sys.stderr)


if __name__ == "__main__":
    write_goldens(sys.argv[1:])
