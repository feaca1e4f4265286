import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import strategies as st

import sturmlex as sx
from sturmlex import factors

TM_SPEC = "morphic:0->01,1->10;seed=0"

FIB32 = "01001010010010100101001001010010"

# A random 6000-letter binary literal, read by the half-window rule in
# rounds of 1024, 2048, 4096 and 6000 letters at max-n 16.
DENSE_LITERAL = format(random.Random(29).getrandbits(6000), "06000b")


# The directory that holds the imported package, so that a child
# interpreter imports the same code without an install or PYTHONPATH.
SRC = str(Path(sx.__file__).resolve().parent.parent)


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def run_module(*argv: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run ``python -m sturmlex *argv`` in a child process."""
    return subprocess.run(
        [sys.executable, "-m", "sturmlex", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=_env(),
    )


# Runs its arguments as a process of its own and prints that process's exit
# code and peak RSS in bytes (ru_maxrss is in KiB on Linux, bytes on macOS).
_MEASURE = """
import resource, subprocess, sys
code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(code, peak if sys.platform == "darwin" else peak * 1024)
"""


def peak_rss(*argv: str, timeout: float = 60) -> tuple[int, float]:
    """(exit code, peak RSS in MB) of ``python *argv`` run in a grandchild."""
    proc = subprocess.run(
        [sys.executable, "-c", _MEASURE, sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=_env(),
    )
    code, peak = proc.stdout.split()
    return int(code), int(peak) / 2**20


def assert_same_text(got: str, want: str) -> None:
    """Assert ``got == want``, reporting the first differing line and its
    number: pytest's own diff of two long texts can run for many minutes."""
    if got != want:
        a, b = got.splitlines(keepends=True), want.splitlines(keepends=True)
        k = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        raise AssertionError(f"texts differ first at line {k + 1}: {a[k:k + 1]} != {b[k:k + 1]}")


def prefix(text: str, n: int) -> str:
    return sx.generate_prefix(sx.parse_spec(text), n)


def counted(spec, n: int) -> list[int]:
    """[0, p(1), ..., p(n)] of an infinite spec, counted from the windows of
    its whole ``language(n)``: what a table's p is unless the spec is
    Sturmian a priori."""
    codes, w = factors._language_codes(spec.language(n), n)
    return factors._histogram(sorted(codes), 0, n, w)[1]


def neighbour_pairs(table) -> list[tuple[int, int, int]]:
    """(lo, a, b) for consecutive ``table.starts()`` a < b, lo the lcp of b
    plus one: their n-letter prefixes neighbour for lo <= n <= frontier."""
    starts = table.starts()
    return [(table.lcps[b] + 1, a, b) for a, b in zip(starts, starts[1:])]


def left_special(table, n: int) -> list[str]:
    """Length-n factors of ``table`` with at least two distinct left
    extensions, read off its length-(n+1) factor list."""
    extensions = Counter(v[1:] for v in table.factors(n + 1))
    return [v for v in table.factors(n) if extensions[v] >= 2]


@st.composite
def literals(draw, min_size: int, max_size: int, alphabets=("01", "012")):
    """A seeded word of min_size..max_size letters over one of ``alphabets``:
    uniform (the shape of the dense-literal benchmark words), biased toward
    its first letter, or a repeated block with a few letters changed."""
    alphabet = draw(st.sampled_from(alphabets))
    short = st.integers(min_size, min(min_size + 40, max_size))
    size = draw(st.one_of(short, st.integers(min_size, max_size)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["uniform", "biased", "noisy-period"]))
    if kind == "uniform":
        letters = [rng.choice(alphabet) for _ in range(size)]
    elif kind == "biased":
        letters = [alphabet[0] if rng.random() < 0.8 else rng.choice(alphabet) for _ in range(size)]
    else:
        block = [rng.choice(alphabet) for _ in range(rng.randint(1, 12))]
        letters = (block * size)[:size]
        for _ in range(rng.randint(1, 3)):
            letters[rng.randrange(size)] = rng.choice(alphabet)
    return "".join(letters)


@pytest.fixture(scope="session")
def fib_table():
    """Fibonacci word, 10000 letters, lengths up to 40."""
    return sx.FactorTable(prefix("fib", 10000), 40)


@pytest.fixture(scope="session")
def tm_table():
    """Thue-Morse word, 4096 letters, lengths up to 12."""
    return sx.FactorTable(prefix(TM_SPEC, 4096), 12)


@pytest.fixture(scope="session")
def per01_table():
    return sx.FactorTable(prefix("periodic:01", 4096), 30)


@pytest.fixture(scope="session")
def ult01_table():
    return sx.FactorTable(prefix("ultper:0|1", 4096), 30)


@pytest.fixture(scope="session")
def zerozero_fib_table():
    """00 followed by the Fibonacci word: aperiodic but not recurrent."""
    return sx.FactorTable("00" + prefix("fib", 4094), 30)
