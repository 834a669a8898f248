"""Named middlebox deployments, for experiment specs and the CLI.

Each profile builds a fresh :class:`MiddleboxChain` modelling one
deployment the MPTCP measurement literature reports in the wild.  The
names are the vocabulary :class:`repro.experiments.config.FlowSpec`
accepts in its ``middlebox`` field.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional

from repro.middlebox.base import MiddleboxChain
from repro.middlebox.proxy import PayloadProxy
from repro.middlebox.rewriter import SequenceRewriter
from repro.middlebox.stripper import OptionStripper

_Builder = Callable[[Optional[random.Random], float], MiddleboxChain]


def _stripper(**flags) -> _Builder:
    def build(rng: Optional[random.Random],
              probability: float) -> MiddleboxChain:
        return MiddleboxChain([OptionStripper(
            probability=probability, rng=rng, **flags)])
    return build


PROFILES: Dict[str, _Builder] = {
    #: A firewall that removes every MPTCP option: the connection must
    #: complete as plain TCP (handshake fallback) -- the worst case the
    #: adoption studies measure.
    "strip-all": _stripper(),
    #: Strips only MP_CAPABLE: no MPTCP session is ever negotiated.
    "strip-capable": _stripper(strip_join=False, strip_add_addr=False,
                               strip_dss=False),
    #: Strips only MP_JOIN: the initial subflow works, extra paths are
    #: rejected, the connection stays single-path.
    "strip-join": _stripper(strip_capable=False, strip_add_addr=False,
                            strip_dss=False),
    #: Strips only DSS after a successful handshake: the infinite-
    #: mapping fallback case of RFC 6824 Section 3.6.
    "strip-dss": _stripper(strip_capable=False, strip_join=False,
                           strip_add_addr=False),
    #: ISN randomization displacing DSS anchors (mapping mismatch).
    "rewrite-seq": lambda rng, probability: MiddleboxChain(
        [SequenceRewriter(rng=rng)]),
    #: Split-connection proxy re-segmenting the stream.
    "proxy": lambda rng, probability: MiddleboxChain([PayloadProxy()]),
}


def build_chain(profile: str, rng: Optional[random.Random] = None,
                probability: float = 1.0) -> MiddleboxChain:
    """Instantiate the chain for a named profile.

    ``probability`` applies to probabilistic boxes (the strippers);
    deterministic boxes ignore it.  ``rng`` must be supplied when
    ``probability < 1`` or when the profile draws random per-flow
    state (``rewrite-seq``).
    """
    try:
        builder = PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown middlebox profile {profile!r}; "
            f"known: {', '.join(sorted(PROFILES))}") from None
    return builder(rng, probability)
