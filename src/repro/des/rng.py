"""Named, reproducible random substreams.

Simulation studies need *stream independence*: the arrival process of
consumer 3 must draw the same values whether or not provider 17 also
consumes randomness.  A single shared ``random.Random`` breaks that (any
extra draw shifts every later one), so experiments become sensitive to
incidental code ordering.

:class:`RandomRoot` derives independent :class:`RandomStream` objects
from a root seed and a string name via SHA-256, so:

* the same ``(root_seed, name)`` always yields the same stream;
* streams with different names are statistically independent;
* adding a new stream never perturbs existing ones.

This is the substitution for SimJava's per-entity RNGs: same seed,
bit-identical run.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Iterable, List, Optional, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a stream name."""
    payload = f"{root_seed}:{name}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStream:
    """A seeded random stream with the distributions the simulation needs.

    Wraps :class:`random.Random` rather than subclassing it so the public
    surface stays small and every distribution used by the reproduction
    is named and testable.
    """

    __slots__ = ("name", "seed", "_rng")

    def __init__(self, seed: int, name: str = "") -> None:
        self.name = name
        self.seed = int(seed)
        self._rng = random.Random(self.seed)

    # -- uniform -------------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform float in [low, high)."""
        return low + (high - low) * self._rng.random()

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        return self._rng.randint(low, high)

    def choice(self, items: Sequence[T]) -> T:
        """Pick one element uniformly."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[self._rng.randrange(len(items))]

    def sample(self, items: Sequence[T], k: int) -> List[T]:
        """Sample ``min(k, len(items))`` distinct elements uniformly.

        Unlike :func:`random.sample`, clamps ``k`` instead of raising,
        because KnBest's stage 1 asks for ``k`` candidates even when
        fewer providers remain online.

        This is a draw-for-draw replica of CPython's
        ``random.Random.sample`` with ``_randbelow`` unrolled into the
        loop: it consumes exactly the same ``getrandbits`` sequence and
        returns exactly the same elements (asserted against the stdlib
        by the rng tests), but skips one function frame per drawn index
        -- KnBest runs this once per mediation, which made the stdlib's
        frame overhead a measurable slice of the allocation hot path.
        """
        if k < 0:
            raise ValueError(f"sample size must be non-negative, got {k}")
        # Lists and tuples are indexed in place (the registry's capable
        # snapshots are tuples; copying them per mediation would undo
        # the snapshot win); anything else is materialised once.
        population = items if isinstance(items, (list, tuple)) else list(items)
        n = len(population)
        if k > n:
            k = n
        getrandbits = self._rng.getrandbits
        result: List[T] = [None] * k  # type: ignore[list-item]
        setsize = 21  # size of a small set minus size of an empty list
        if k > 5:
            setsize += 4 ** math.ceil(math.log(k * 3, 4))
        if n <= setsize:
            # An n-length list is smaller than a k-length set: pick from
            # a shrinking pool (Fisher-Yates-style partial shuffle).
            pool = list(population)
            for i in range(k):
                m = n - i
                bits = m.bit_length()
                j = getrandbits(bits)
                while j >= m:
                    j = getrandbits(bits)
                result[i] = pool[j]
                pool[j] = pool[m - 1]  # move non-selected item into vacancy
        else:
            selected: set = set()
            selected_add = selected.add
            bits = n.bit_length()
            for i in range(k):
                j = getrandbits(bits)
                while j >= n:
                    j = getrandbits(bits)
                while j in selected:
                    j = getrandbits(bits)
                    while j >= n:
                        j = getrandbits(bits)
                selected_add(j)
                result[i] = population[j]
        return result

    def sample_indices(self, n: int, k: int) -> List[int]:
        """Sample ``min(k, n)`` distinct indices from ``range(n)``.

        Draw-for-draw identical to ``sample(seq, k)`` over any
        ``n``-length sequence -- the stdlib algorithm's ``getrandbits``
        consumption depends only on ``(n, k)``, never on the elements --
        so ``[seq[i] for i in sample_indices(len(seq), k)]`` equals
        ``sample(seq, k)`` exactly.  The fast engine's fused kernel
        works in snapshot ordinals and uses this form to skip the
        element indirection of stage 1.
        """
        if k < 0:
            raise ValueError(f"sample size must be non-negative, got {k}")
        if k > n:
            k = n
        getrandbits = self._rng.getrandbits
        result: List[int] = [0] * k
        setsize = 21  # size of a small set minus size of an empty list
        if k > 5:
            setsize += 4 ** math.ceil(math.log(k * 3, 4))
        if n <= setsize:
            pool = list(range(n))
            for i in range(k):
                m = n - i
                bits = m.bit_length()
                j = getrandbits(bits)
                while j >= m:
                    j = getrandbits(bits)
                result[i] = pool[j]
                pool[j] = pool[m - 1]
        else:
            selected: set = set()
            selected_add = selected.add
            bits = n.bit_length()
            for i in range(k):
                j = getrandbits(bits)
                while j >= n:
                    j = getrandbits(bits)
                while j in selected:
                    j = getrandbits(bits)
                    while j >= n:
                        j = getrandbits(bits)
                selected_add(j)
                result[i] = j
        return result

    def shuffle(self, items: List[T]) -> None:
        """In-place Fisher-Yates shuffle."""
        self._rng.shuffle(items)

    # -- distributions ---------------------------------------------------

    def exponential(self, mean: float) -> float:
        """Exponential variate with the given mean (inter-arrival times)."""
        if mean <= 0:
            raise ValueError(f"exponential mean must be positive, got {mean}")
        u = 1.0 - self._rng.random()  # avoid log(0)
        return -mean * math.log(u)

    def normal(self, mu: float, sigma: float) -> float:
        """Gaussian variate."""
        return self._rng.gauss(mu, sigma)

    def lognormal(self, mean: float, cv: float) -> float:
        """Log-normal variate parameterised by its *arithmetic* mean and
        coefficient of variation (sigma/mean), which is how service-demand
        heterogeneity is specified in experiment configs."""
        if mean <= 0:
            raise ValueError(f"lognormal mean must be positive, got {mean}")
        if cv < 0:
            raise ValueError(f"lognormal cv must be non-negative, got {cv}")
        if cv == 0:
            return mean
        sigma2 = math.log(1.0 + cv * cv)
        mu = math.log(mean) - sigma2 / 2.0
        return math.exp(self._rng.gauss(mu, math.sqrt(sigma2)))

    def pareto(self, alpha: float, minimum: float = 1.0) -> float:
        """Bounded-below Pareto variate (heavy-tailed demands)."""
        if alpha <= 0:
            raise ValueError(f"pareto alpha must be positive, got {alpha}")
        if minimum <= 0:
            raise ValueError(f"pareto minimum must be positive, got {minimum}")
        u = 1.0 - self._rng.random()
        return minimum / (u ** (1.0 / alpha))

    def zipf_weights(self, n: int, skew: float) -> List[float]:
        """Zipf-like popularity weights of length ``n`` summing to 1.

        ``skew = 0`` is uniform; larger skews concentrate mass on the
        first ranks.  Used to build popular/normal/unpopular projects.
        """
        if n <= 0:
            raise ValueError(f"need at least one rank, got n={n}")
        if skew < 0:
            raise ValueError(f"skew must be non-negative, got {skew}")
        raw = [1.0 / ((rank + 1) ** skew) for rank in range(n)]
        total = sum(raw)
        return [w / total for w in raw]

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Pick one element with the given (not necessarily normalised) weights."""
        if len(items) != len(weights):
            raise ValueError("items and weights must have the same length")
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        for weight in weights:
            if weight < 0:
                raise ValueError(f"negative weight {weight}")
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        pick = self._rng.random() * total
        acc = 0.0
        for item, weight in zip(items, weights):
            acc += weight
            if pick < acc:
                return item
        return items[-1]  # floating-point slack

    def bernoulli(self, p: float) -> bool:
        """True with probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {p}")
        return self._rng.random() < p

    def __repr__(self) -> str:
        return f"RandomStream(name={self.name!r}, seed={self.seed})"


class RandomRoot:
    """Factory of named substreams derived from one root seed.

    Examples
    --------
    >>> root = RandomRoot(42)
    >>> a = root.stream("arrivals/consumer-0")
    >>> b = root.stream("arrivals/consumer-0")
    >>> a.uniform() == b.uniform()
    True
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._issued: dict = {}

    def stream(self, name: str) -> RandomStream:
        """Return the stream for ``name``; fresh instance per call.

        Two calls with the same name give *independent instances at the
        start of the same sequence* -- convenient for tests; production
        code stores the stream it was given.
        """
        return RandomStream(derive_seed(self.seed, name), name=name)

    def spawn(self, name: str) -> "RandomRoot":
        """Derive a child root (e.g. one per replication)."""
        return RandomRoot(derive_seed(self.seed, f"root/{name}"))

    def streams(self, names: Iterable[str]) -> List[RandomStream]:
        """Bulk :meth:`stream` for an iterable of names."""
        return [self.stream(name) for name in names]

    def __repr__(self) -> str:
        return f"RandomRoot(seed={self.seed})"


def spawn_replication_root(base_seed: int, replication: int) -> RandomRoot:
    """Root for replication ``replication`` of an experiment.

    Kept as a module-level helper so experiment runners and tests agree
    on the derivation.
    """
    if replication < 0:
        raise ValueError(f"replication index must be non-negative, got {replication}")
    return RandomRoot(derive_seed(base_seed, f"replication/{replication}"))


def default_root(seed: Optional[int] = None) -> RandomRoot:
    """A root with the library-wide default seed unless overridden."""
    return RandomRoot(20090301 if seed is None else seed)  # ICDE 2009, March
