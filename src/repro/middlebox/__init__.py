"""Programmable on-path middleboxes (see :mod:`repro.middlebox.base`)."""

from repro.middlebox.base import (
    LinkTap,
    Middlebox,
    MiddleboxChain,
    MiddleboxStats,
    install_chain,
)
from repro.middlebox.profiles import PROFILES, build_chain
from repro.middlebox.proxy import PayloadProxy
from repro.middlebox.rewriter import SequenceRewriter
from repro.middlebox.stripper import OptionStripper

__all__ = [
    "LinkTap",
    "Middlebox",
    "MiddleboxChain",
    "MiddleboxStats",
    "OptionStripper",
    "PROFILES",
    "PayloadProxy",
    "SequenceRewriter",
    "build_chain",
    "install_chain",
]
