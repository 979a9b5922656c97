"""The abstract-domain protocol and transformer registry.

Every abstract domain in the stack — interval (box), octagon, zonotope,
symbolic — implements **one** surface, and that surface is *batched*:
an element covers ``n`` input regions at once (scalar analysis is a
batch of one).  Transformers are registered per ``(domain, op type)``
in a single registry, so exactly one propagation implementation exists
per (op, domain) — the scalar/batch duplicate stacks of earlier
revisions are gone.

A domain provides:

- :meth:`AbstractDomain.lift` — batched element from a
  :class:`~repro.verification.sets.BoxBatch` of region hulls;
- :meth:`AbstractDomain.transform` — one primitive-op step, dispatched
  through the registry;
- :meth:`AbstractDomain.propagate` — a whole
  :class:`~repro.verification.ir.LoweredProgram`;
- :meth:`AbstractDomain.concretize` — the per-region interval hulls;
- :meth:`AbstractDomain.extract` — one region's *enclosure value*
  (:class:`~repro.verification.sets.Box`, ``Zonotope``,
  ``BoxWithDiffs``, …), the unit the engine caches per
  ``(feature set, domain)``;
- :meth:`AbstractDomain.linear_lower_bound` — sound ``min a . y`` over
  an enclosure, the prescreen primitive;
- :meth:`AbstractDomain.feature_set` — the enclosure as a
  :class:`~repro.verification.sets.FeatureSet` for Lemma 2 registration.

Domains register with :func:`register_domain` and are ordered by
``cost_rank`` into the engine's precision ladder (interval → octagon →
zonotope → symbolic); ``refines`` names the domains a domain is
guaranteed never to be looser than, coordinate-wise, on concretized
hulls — the contract the differential test suite enforces.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable

import numpy as np

from repro.verification.sets import Box, BoxBatch, FeatureSet

#: (domain name, op type) -> transformer(domain, op, element) -> element
_TRANSFORMERS: dict[tuple[str, type], Callable] = {}

#: domain name -> singleton domain object
_DOMAINS: dict[str, "AbstractDomain"] = {}


def register_transformer(domain: str, *op_types: type):
    """Class decorator-style registration of one op transformer.

    Usage::

        @register_transformer("interval", AffineOp)
        def _affine(domain, op, batch): ...
    """

    def decorate(fn: Callable) -> Callable:
        for op_type in op_types:
            key = (domain, op_type)
            if key in _TRANSFORMERS:
                raise ValueError(
                    f"transformer for {key} is already registered; the "
                    f"registry allows exactly one implementation per "
                    f"(op, domain)"
                )
            _TRANSFORMERS[key] = fn
        return fn

    return decorate


def register_domain(domain: "AbstractDomain") -> "AbstractDomain":
    """Register a domain instance under its ``name``."""
    if domain.name in _DOMAINS:
        raise ValueError(f"domain {domain.name!r} is already registered")
    _DOMAINS[domain.name] = domain
    return domain


def get_domain(name: str) -> "AbstractDomain":
    """Look up a registered domain by name.

    Examples
    --------
    >>> import repro.verification.abstraction  # registers the domains
    >>> get_domain("interval").name
    'interval'
    """
    try:
        return _DOMAINS[name]
    except KeyError:
        raise ValueError(
            f"unknown domain {name!r}; registered: {registered_domains()}"
        ) from None


def registered_domains() -> list[str]:
    """Registered domain names in precision-ladder (cost) order."""
    return [d.name for d in sorted(_DOMAINS.values(), key=lambda d: d.cost_rank)]


def precision_ladder(up_to: str) -> list[str]:
    """The engine's escalation ladder: every domain at most as costly
    as ``up_to``, cheapest first (ending with ``up_to`` itself)."""
    ceiling = get_domain(up_to).cost_rank
    return [
        d.name
        for d in sorted(_DOMAINS.values(), key=lambda d: d.cost_rank)
        if d.cost_rank <= ceiling
    ]


class AbstractDomain(ABC):
    """Protocol of a batched abstract domain (scalar = batch of one)."""

    #: registry name (``"interval"``, ``"zonotope"``, …)
    name: str = ""
    #: position in the precision ladder (lower = cheaper, tried first)
    cost_rank: int = 0
    #: domains this one is promised never to be looser than,
    #: coordinate-wise, on concretized output hulls
    refines: tuple[str, ...] = ()

    # -- batched core ------------------------------------------------------

    @abstractmethod
    def lift(self, regions: BoxBatch) -> Any:
        """Batched element covering every region hull."""

    @abstractmethod
    def concretize(self, element: Any) -> BoxBatch:
        """Per-region interval hulls of a batched element."""

    def transform(self, op, element: Any) -> Any:
        """One primitive-op step via the ``(op, domain)`` registry."""
        fn = _TRANSFORMERS.get((self.name, type(op)))
        if fn is None:
            raise TypeError(
                f"no {self.name} transformer for {type(op).__name__}"
            )
        return fn(self, op, element)

    def propagate(self, program, element: Any) -> Any:
        """Element image of a whole lowered program."""
        for op in program.ops:
            element = self.transform(op, element)
        return element

    def supports(self, op) -> bool:
        """Whether a transformer is registered for this op."""
        return (self.name, type(op)) in _TRANSFORMERS

    def supports_program(self, program) -> bool:
        return all(self.supports(op) for op in program.ops)

    # -- per-region enclosure values ---------------------------------------

    @abstractmethod
    def extract(self, element: Any, index: int) -> Any:
        """Region ``index``'s enclosure value (a compact scalar object)."""

    def enclosures(self, element: Any) -> list:
        """All per-region enclosure values, in region order."""
        n = self.concretize(element).n_regions
        return [self.extract(element, i) for i in range(n)]

    def linear_lower_bound(self, enclosure: Any, a: np.ndarray) -> float:
        """Sound lower bound of ``a . y`` over one enclosure.

        The default evaluates ``a . y`` over the enclosure's interval
        hull — the single implementation of the box formula; domains
        with a tighter enclosure structure (zonotope support functions,
        octagon LP tightening) override it.
        """
        box = self.enclosure_box(enclosure)
        a = np.asarray(a, dtype=float)
        return float(np.sum(np.where(a >= 0.0, a * box.lower, a * box.upper)))

    def feature_set(self, enclosure: Any) -> FeatureSet:
        """The enclosure as a Lemma-2 feature set (default: its box)."""
        box = self.enclosure_box(enclosure)
        return box

    @abstractmethod
    def enclosure_box(self, enclosure: Any) -> Box:
        """Interval hull of one enclosure value."""
