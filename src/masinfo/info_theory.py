"""Exact entropy and mutual-information computations on small finite joints.

Everything is computed by dense enumeration over the product space, in bits.
The joint carries named variables: by convention "X" (input), "Y" (answer)
and "Z1".."Zn" (agent calls), though any names work for the generic ops.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

MAX_TABLE_SIZE = 10 ** 7
NEG_MI_TOL = 1e-10


class InvalidVariable(ValueError):
    pass


def _entropy_bits(p):
    p = p[p > 0.0]
    # 0.0 - x, not -x: a point mass (a set of clones) has entropy +0.0, not -0.0
    return float(0.0 - np.sum(p * np.log2(p)))


def _row_entropies_bits(rows):
    """Entropy in bits of each rows[a], taken over all of its remaining axes."""
    flat = rows.reshape(len(rows), -1)
    logs = np.zeros_like(flat)
    np.log2(flat, out=logs, where=flat > 0.0)
    return -(flat * logs).sum(axis=1)


@dataclass(frozen=True)
class DiscreteJoint:
    """Dense probability table over named finite variables.

    probabilities has one axis per variable, in the order of `names`.
    """

    names: tuple
    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        names = tuple(self.names)
        if p.ndim != len(names):
            raise ValueError("one axis per variable required")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        if p.size > MAX_TABLE_SIZE:
            raise ValueError(f"product space {p.size} exceeds {MAX_TABLE_SIZE}")
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite")
        if np.any(p < -1e-12):
            raise ValueError("negative probability")
        if abs(p.sum() - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {p.sum()}, not 1")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "probabilities", p)
        self.probabilities.setflags(write=False)

    @property
    def alphabet_sizes(self):
        return self.probabilities.shape

    def axes_of(self, variables):
        try:
            return tuple(self.names.index(v) for v in variables)
        except ValueError as exc:
            raise InvalidVariable(f"unknown variable in {variables}") from exc

    def marginal(self, variables):
        """Marginal table over `variables`, axes in the given order."""
        keep = self.axes_of(variables)
        drop = tuple(i for i in range(len(self.names)) if i not in keep)
        m = self.probabilities.sum(axis=drop) if drop else self.probabilities
        # reorder remaining axes to match the requested order
        remaining = [i for i in range(len(self.names)) if i in keep]
        perm = [remaining.index(i) for i in keep]
        return np.transpose(m, perm)

    def entropy(self, variables):
        """Joint entropy H(variables) in bits."""
        if not variables:
            return 0.0
        return _entropy_bits(self.marginal(variables).ravel())

    def condition_on(self, assignment):
        """New joint over the remaining variables given {name: symbol-index}.

        Raises ValueError if the conditioning event has probability 0.
        """
        idx = [slice(None)] * len(self.names)
        for name, sym in assignment.items():
            idx[self.names.index(name)] = sym
        sub = self.probabilities[tuple(idx)]
        z = sub.sum()
        if z <= 0.0:
            raise ValueError("conditioning event has zero probability")
        names = tuple(n for n in self.names if n not in assignment)
        return DiscreteJoint(names, sub / z)

    @classmethod
    def from_json(cls, obj):
        """{"alphabets": [..], "probs": [flat row-major], "names": [..]?}.

        Raises ValueError, naming the field, unless `obj` is an object whose
        "alphabets" is a list of positive ints, "probs" a list of one number
        per cell and "names", if present and not null, a list of strings.
        """
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, dict):
            raise ValueError(f"joint must be a JSON object, got {str(obj)[:80]}")
        for key in ("alphabets", "probs"):
            if key not in obj:
                raise ValueError(f"joint has no {key!r} field")
        shape = obj["alphabets"]
        # a bool is no alphabet size, and int() would truncate a float
        if not isinstance(shape, list) or any(type(a) is not int or a < 1 for a in shape):
            raise ValueError(f"'alphabets' must be a list of positive ints, "
                             f"got {str(shape)[:80]}")
        names = obj.get("names")
        if names is None:
            names = _default_names(len(shape))
        elif not isinstance(names, list) or any(type(n) is not str for n in names):
            raise ValueError(f"'names' must be a list of strings, got {str(names)[:80]}")
        probs = obj["probs"]
        # one type() per cell in C: a joint of 12 views has 8,192 of them
        if not isinstance(probs, list) or not set(map(type, probs)) <= {int, float}:
            raise ValueError(f"'probs' must be a flat list of numbers, got {str(probs)[:80]}")
        if len(probs) != math.prod(shape):
            raise ValueError(f"'probs' has {len(probs)} entries, but 'alphabets' "
                             f"{shape} has {math.prod(shape)} cells")
        return cls(tuple(names), np.array(probs, dtype=float).reshape(shape))

    def to_json(self):
        return json.dumps(
            {
                "names": list(self.names),
                "alphabets": list(self.alphabet_sizes),
                "probs": self.probabilities.ravel().tolist(),
            }
        )


def _default_names(k):
    # X, Y, then Z1..Z{k-2}
    if k < 2:
        raise ValueError("need at least X and Y")
    return ["X", "Y"] + [f"Z{i}" for i in range(1, k - 1)]


def _as_set(v):
    if v is None:
        return ()
    if isinstance(v, str):
        return (v,)
    return tuple(v)


def conditional_entropy(joint: DiscreteJoint, target, given=()) -> float:
    """H(target | given) in bits; target and given may be single names or tuples."""
    target = _as_set(target)
    given = _as_set(given)
    if set(target) & set(given):
        raise InvalidVariable("target and conditioning sets must be disjoint")
    return joint.entropy(target + given) - joint.entropy(given)


def conditional_mutual_information(joint: DiscreteJoint, a, b, given=()) -> float:
    """I(a; b | given) = H(a|given) - H(a|b,given), clipped at -1e-10.

    Tiny negatives are floating-point noise; larger ones indicate a broken
    table and raise.
    """
    a, b, given = _as_set(a), _as_set(b), _as_set(given)
    if (set(a) & set(b)) or (set(a) & set(given)) or (set(b) & set(given)):
        raise InvalidVariable("variable sets must be pairwise disjoint")
    mi = (
        joint.entropy(a + given)
        + joint.entropy(b + given)
        - joint.entropy(a + b + given)
        - joint.entropy(given)
    )
    if mi < -NEG_MI_TOL:
        raise ValueError(f"mutual information {mi:.3e} below -{NEG_MI_TOL}")
    return max(mi, 0.0)


@dataclass(frozen=True)
class TypeProfile:
    """Per-type call counts and per-call information rates, in bits."""

    types: tuple
    counts: tuple
    single_call_info: tuple
    max_step_info: tuple = ()

    def __post_init__(self):
        if len(self.types) != len(self.counts) or len(self.types) != len(self.single_call_info):
            raise ValueError("types, counts and single_call_info must align")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")
        if self.max_step_info and len(self.max_step_info) != len(self.types):
            raise ValueError("max_step_info must align with types")

    @property
    def n(self):
        return sum(self.counts)


@dataclass(frozen=True)
class BudgetReport:
    """I_MAS(n), its per-call increments, and the ceiling terms, in bits."""

    h_y_given_x: float
    i_mas: float
    increments: tuple
    ceiling_parallel: float
    ceiling_sequential: float


def call_names(joint: DiscreteJoint):
    return tuple(n for n in joint.names if n not in ("X", "Y"))


def single_call_info(joint: DiscreteJoint, call) -> float:
    """I(Z_i; Y | X): one call's information in isolation."""
    return conditional_mutual_information(joint, call, "Y", "X")


def max_step_info(joint: DiscreteJoint, call) -> float:
    """sup over earlier-call assignments z_<i of I(Z_i; Y | X, Z_<i = z_<i).

    Marginalizes once to (Z_<i, X, Y, Z_i), drops the zero-probability
    histories and computes every history's conditional MI in one numpy pass,
    so the cost is linear in the size of that marginal.
    """
    calls = call_names(joint)
    i = calls.index(call)
    prev = calls[:i]
    if not prev:
        return single_call_info(joint, call)
    table = joint.marginal(prev + ("X", "Y", call))
    rows = table.reshape((-1,) + table.shape[-3:])  # one (X, Y, Z_i) table per history
    mass = rows.sum(axis=(1, 2, 3))
    live = mass > 0.0
    if not live.any():
        return 0.0
    rows = rows[live] / mass[live, None, None, None]
    mi = (
        _row_entropies_bits(rows.sum(axis=2))  # H(X, Z_i)
        + _row_entropies_bits(rows.sum(axis=3))  # H(X, Y)
        - _row_entropies_bits(rows)  # H(X, Y, Z_i)
        - _row_entropies_bits(rows.sum(axis=(2, 3)))  # H(X)
    )
    worst = float(mi.min())
    if worst < -NEG_MI_TOL:
        raise ValueError(f"mutual information {worst:.3e} below -{NEG_MI_TOL}")
    return max(float(mi.max()), 0.0)


def usable_evidence(joint: DiscreteJoint, n_calls=None) -> BudgetReport:
    """Chain-rule decomposition I_MAS(n) = sum_i I(Z_i; Y | X, Z_<i).

    Also reports H(Y|X) and the parallel/sequential ceilings of the
    TypeProfile that makes each call its own type of count 1 (I_b from
    isolation, I_b^max as the sup over earlier-call histories).
    """
    calls = call_names(joint)
    if not calls:
        raise InvalidVariable("joint has no call variables")
    if n_calls is not None:
        if not 1 <= n_calls <= len(calls):
            raise InvalidVariable(f"n_calls {n_calls} out of range 1..{len(calls)}")
        calls = calls[:n_calls]
    h = conditional_entropy(joint, "Y", "X")
    increments = []
    for i, c in enumerate(calls):
        increments.append(
            conditional_mutual_information(joint, c, "Y", ("X",) + tuple(calls[:i]))
        )
    profile = TypeProfile(calls, (1,) * len(calls),
                          tuple(single_call_info(joint, c) for c in calls),
                          tuple(max_step_info(joint, c) for c in calls))
    return BudgetReport(
        h_y_given_x=h,
        i_mas=float(sum(increments)),
        increments=tuple(increments),
        ceiling_parallel=parallel_ceiling(profile, h),
        ceiling_sequential=sequential_ceiling(profile, h),
    )


def parallel_ceiling(profile: TypeProfile, h_y_given_x: float) -> float:
    """min(H(Y|X), sum_b m_b * I_b): ceiling for conditionally independent sampling."""
    return min(h_y_given_x, float(sum(m * i for m, i in zip(profile.counts, profile.single_call_info))))


def sequential_ceiling(profile: TypeProfile, h_y_given_x: float) -> float:
    """min(H(Y|X), sum_b m_b * I_b^max): ceiling for sequential pipelines."""
    if not profile.max_step_info:
        raise ValueError("profile has no max_step_info")
    return min(h_y_given_x, float(sum(m * i for m, i in zip(profile.counts, profile.max_step_info))))


def redundancy_identity_check(joint: DiscreteJoint, i: int):
    """Three-way decomposition of the i-th increment (1-based call index).

    lhs = I(Z_i; Y | X, Z_<i)
    rhs = I(Z_i; Y | X) + I(Z_i; Z_<i | X, Y) - I(Z_i; Z_<i | X)

    Returns (lhs, rhs, gap, coupling) where coupling = I(Z_i; Z_<i | X, Y);
    the identity holds on every joint, and coupling = 0 exactly under
    conditional independence.
    """
    calls = call_names(joint)
    if not 1 <= i <= len(calls):
        raise InvalidVariable(f"call index {i} out of range 1..{len(calls)}")
    zi = calls[i - 1]
    prev = tuple(calls[: i - 1])
    lhs = conditional_mutual_information(joint, zi, "Y", ("X",) + prev)
    marginal = conditional_mutual_information(joint, zi, "Y", "X")
    if prev:
        coupling = conditional_mutual_information(joint, zi, prev, ("X", "Y"))
        overlap = conditional_mutual_information(joint, zi, prev, "X")
    else:
        coupling = 0.0
        overlap = 0.0
    rhs = marginal + coupling - overlap
    return lhs, rhs, lhs - rhs, coupling


def conditionally_independent_joint(p_xy, channels, names=None) -> DiscreteJoint:
    """Joint where each call Z_i ~ channels[i][x, y, z] independently given (X, Y).

    p_xy: |X| x |Y| table; channels: list of |X| x |Y| x |Z_i| kernels, each
    summing to 1 over the last axis.
    """
    p_xy = np.asarray(p_xy, dtype=float)
    table = p_xy.copy()
    for k in channels:
        k = np.asarray(k, dtype=float)
        # table axes: X, Y, Z1..Z_{i-1}; broadcast-multiply the new kernel
        expand = k.reshape(k.shape[:2] + (1,) * (table.ndim - 2) + (k.shape[2],))
        table = table[..., None] * expand
    names = tuple(names or _default_names(2 + len(channels)))
    return DiscreteJoint(names, table)


def bsc_views_joint(noise, n_views, p_y=0.5) -> DiscreteJoint:
    """Uniform-ish bit Y (X trivial) with n independent BSC(noise) views of Y.

    A toy instantiation of conditionally independent parallel channels; the
    concrete kernels are this artifact's choice, not drawn from any source.
    """
    p_xy = np.array([[1.0 - p_y, p_y]])  # |X| = 1
    flip = np.array([[1.0 - noise, noise], [noise, 1.0 - noise]])
    channel = flip[None, :, :]  # x axis of size 1
    return conditionally_independent_joint(p_xy, [channel] * n_views)
