import sys
from pathlib import Path

import numpy as np
import pytest

# the dense reference lives with the benchmark, whose --check trusts it
# too; on the path before any test module imports it
_PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if _PERFBENCH not in sys.path:
    sys.path.insert(0, _PERFBENCH)

from dense import from_terms
from zeon import Zeon

# acceptance tests append (number, passed, detail) here; the summary
# hook prints one line per criterion at the end of the run
ACCEPTANCE_RESULTS: list[tuple[int, bool, str]] = []


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(987654321)


def random_terms(rng, n, max_terms=None, scale=1.0, with_scalar=None):
    """Index/coefficient pairs over n generators, duplicates allowed."""
    max_terms = max_terms or min(2 ** n, 10)
    count = int(rng.integers(1, max_terms + 1))
    terms = []
    for _ in range(count):
        size = int(rng.integers(0, n + 1))
        indices = tuple(sorted(rng.choice(np.arange(1, n + 1), size=size,
                                          replace=False).tolist()))
        coeff = complex(rng.normal(scale=scale), rng.normal(scale=scale))
        terms.append((indices, coeff))
    if with_scalar is not None:
        terms = [t for t in terms if t[0] != ()]
        terms.append(((), with_scalar))
    return terms


def random_zeon(rng, n, **kw) -> Zeon:
    return Zeon(n, random_terms(rng, n, **kw))


def random_invertible(rng, n, **kw) -> Zeon:
    # scalar part bounded away from zero so inverses stay well scaled
    mag = 1.0 + float(rng.uniform(0.0, 2.0))
    phase = float(rng.uniform(0.0, 2.0 * np.pi))
    s = mag * complex(np.cos(phase), np.sin(phase))
    return Zeon(n, random_terms(rng, n, with_scalar=s, **kw))


def random_nilpotent(rng, n, **kw) -> Zeon:
    return random_zeon(rng, n, **kw).dual_part()


def to_dense(u: Zeon) -> np.ndarray:
    return from_terms(u.n, u.terms())


def from_dense(n: int, v: np.ndarray) -> Zeon:
    terms = []
    for mask in range(len(v)):
        if v[mask] != 0:
            indices = tuple(i + 1 for i in range(n) if mask >> i & 1)
            terms.append((indices, complex(v[mask])))
    return Zeon(n, terms)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {status} ({detail})")
