"""Replay cost per entry does not grow with history: a deterministic check by executed lines.

One API workflow writes a ledger history of about 2,000 entries. Its first
~50 entries and the whole history are each parsed and replayed under
``sys.settrace``, counting the lines executed in ``src/islsim``. Per kind
of entry, the lines replay spends on an entry late in the long history
must be no more than on one in the short history, and the whole-log parse
must cost no more lines per entry on the long log than on the short one.
Timers cannot settle this on a shared machine; line counts are exact. A
C-level call (``re``, ``json``, ``hashlib``) counts as one line, whatever
its input size. Counts differ across Python versions, so only counts of one
run are compared.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from collections.abc import Iterator
from pathlib import Path

import pytest

from islsim import cli
from islsim.errors import WrongPayment
from islsim.ledger import AccountCreation, Transaction, log_lines, parse_log, replay
from islsim.mlsim import RoomProfile
from islsim.node import Network

SRC = str(Path(cli.__file__).resolve().parent)
EARLY, LATE = 50, 2_000  # entries in the short log, and at least in the long one
SHARE_EVERY = 60  # rounds between two new shared models


class LineCounter:
    """Counts the lines executed in ``src/islsim`` while installed with ``sys.settrace``."""

    def __init__(self) -> None:
        self.lines = 0

    def __call__(self, frame, event, arg):  # the global trace function: on each call
        if not frame.f_code.co_filename.startswith(SRC):
            return None
        return self._local

    def _local(self, frame, event, arg):
        if event == "line":
            self.lines += 1
        return self._local


def _kind(entry: AccountCreation | Transaction, reverted: set[int]) -> str:
    if isinstance(entry, AccountCreation):
        return "account"
    return entry.method + (" (reverted)" if entry.seq in reverted else "")


def _history(root: Path) -> tuple[str, set[int]]:
    """The log text of one API workflow, and the seqs of its reverted transactions."""
    net = Network.create(root, owner_balance=10**9)
    alice, bob = net.add_node("alice", 10**9), net.add_node("bob", 10**9)
    net.register_node("alice")
    net.register_node("bob")
    reverted = set()
    for round_no in range(LATE):
        if round_no % SHARE_EVERY == 0:
            n = round_no // SHARE_EVERY
            alice.create_local_dataset(f"d{n}", seed=n, profile=RoomProfile(2.0, 1.0, 0.05), n_rows=8)
            alice.train_model(f"m{n}", f"d{n}", "occupancy_detection")
            model = alice.share_model(f"m{n}")
        price = round_no + 1  # a zero value moves no funds, which costs fewer lines
        alice.set_price(model.iri, price)
        bob.acquire_model(model.content_address, payment=price)
        with pytest.raises(WrongPayment):
            bob.acquire_model(model.content_address, payment=price + 1)
        reverted.add(net.ledger.log[-1].seq)
        if len(net.ledger.log) >= LATE:
            break
    return "".join(line + "\n" for line in log_lines(net.ledger)), reverted


def _replay_lines(text: str, reverted: set[int]) -> tuple[float, list[tuple[str, int]]]:
    """Lines per entry of parsing ``text``, and (kind, lines) of replaying each entry."""
    counter = LineCounter()
    marks: list[tuple[str, int]] = []  # (kind, lines counted when replay took the entry)

    def marked(entries) -> Iterator:
        for entry in entries:
            marks.append((_kind(entry, reverted), counter.lines))
            yield entry
        marks.append(("end", counter.lines))  # replay asks for an entry past the last

    previous = sys.gettrace()
    sys.settrace(counter)
    try:
        entries = parse_log(text)
        parse_lines = counter.lines
        replay(marked(entries), Network.contract_factory)
    finally:
        sys.settrace(previous)
    assert entries is not None
    return parse_lines / len(entries), [(kind, end - at) for (kind, at), (_, end) in zip(marks, marks[1:])]


def _per_kind(costs: list[tuple[str, int]]) -> dict[str, float]:
    by_kind = defaultdict(list)
    for kind, lines in costs:
        by_kind[kind].append(lines)
    return {kind: sum(lines) / len(lines) for kind, lines in by_kind.items()}


def test_replay_lines_per_entry_do_not_grow_with_history(tmp_path):
    text, reverted = _history(tmp_path / "net")
    lines = text.split("\n")[:-1]
    assert len(lines) >= LATE
    early_parse, early = _replay_lines("".join(line + "\n" for line in lines[:EARLY]), reverted)
    late_parse, late = _replay_lines(text, reverted)

    assert late_parse <= early_parse
    early_kinds = _per_kind(early)
    late_kinds = _per_kind(late[-len(late) // 4:])  # the last quarter of the long history
    assert {"share_model", "set_price", "acquire", "acquire (reverted)"} <= early_kinds.keys()
    assert {"share_model", "set_price", "acquire", "acquire (reverted)"} <= late_kinds.keys()
    for kind in early_kinds.keys() & late_kinds.keys():
        assert late_kinds[kind] <= early_kinds[kind], (kind, early_kinds, late_kinds)
