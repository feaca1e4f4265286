import os
import subprocess
import sys
from pathlib import Path

import pytest

import sturmlex as sx

TM_SPEC = "morphic:0->01,1->10;seed=0"

FIB32 = "01001010010010100101001001010010"


# The directory that holds the imported package, so that a child
# interpreter imports the same code without an install or PYTHONPATH.
SRC = str(Path(sx.__file__).resolve().parent.parent)


def run_module(*argv: str) -> subprocess.CompletedProcess:
    """Run ``python -m sturmlex *argv`` in a child process."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, "-m", "sturmlex", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )


def prefix(text: str, n: int) -> str:
    return sx.generate_prefix(sx.parse_spec(text), n)


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
