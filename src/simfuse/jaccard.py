"""Jaccard similarity weighted by grammatical-role agreement.

Co-occurring words whose grammatical role matches in both sentences boost
the plain token-set Jaccard coefficient.  The boost only fires once the
pair shares at least three distinct words; matching on the NONE role (or
on absent roles) never counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .corpus import Sentence

_COMPONENT_GATE = 3  # minimum co-occurrence set size before weighting fires


@dataclass(frozen=True)
class CoOccurrence:
    """Surfaces present in both sentences plus their role in each.

    Roles are taken from the first occurrence of the word in each
    sentence; later duplicates are ignored.
    """

    words: frozenset[str]
    role_pairs: Mapping[str, tuple[str | None, str | None]]


def _first_roles(s: Sentence) -> dict[str, str | None]:
    roles: dict[str, str | None] = {}
    for word, role in zip(s.words, s.roles):
        roles.setdefault(word, role)
    return roles


def co_occurrence(a: Sentence, b: Sentence) -> CoOccurrence:
    """Distinct surfaces appearing in both sentences, with role pairs."""
    roles_a = _first_roles(a)
    roles_b = _first_roles(b)
    common = frozenset(roles_a) & frozenset(roles_b)
    return CoOccurrence(
        words=common,
        role_pairs={w: (roles_a[w], roles_b[w]) for w in common},
    )


def component_weight(c: CoOccurrence) -> float:
    """Role-agreement weight: (count+1)/count over same-role co-words.

    Returns 1.0 when fewer than three words co-occur or when no
    co-occurring word keeps the same (non-NONE) role in both sentences.
    """
    if len(c.words) < _COMPONENT_GATE:
        return 1.0
    count = sum(
        1
        for ra, rb in c.role_pairs.values()
        if ra is not None and ra != "NONE" and ra == rb
    )
    if count == 0:
        return 1.0
    return (count + 1) / count


def jaccard_score(a: Sentence, b: Sentence, clamp: bool = True) -> float:
    """Role-weighted Jaccard similarity over distinct token surfaces.

    The raw value is weight * |intersection| / |union| and can reach 2.0
    (identical sentences with a single matching role).  With ``clamp``
    (the default) the result is capped at 1.0 for use in the fused
    pipeline; pass ``clamp=False`` to inspect the raw value.
    """
    union = set(a.words) | set(b.words)
    common = co_occurrence(a, b)
    raw = component_weight(common) * len(common.words) / len(union)
    return min(1.0, raw) if clamp else raw
