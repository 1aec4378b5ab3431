"""Simulated ledger: ordered transactions, balances, receipts, replay.

There are no blocks, no consensus, and no signatures; the ledger is a
strictly serial state machine. A transaction debits the sender by
``value``, credits the target contract's held balance, and runs one
contract method. Each write goes through :meth:`CallContext.put`, which
journals the old value first, so undoing costs what the transaction
wrote, not the size of the state. If the method raises *any* exception
the journal is unwound, newest first; it is the ledger's one rollback.
An :class:`~islsim.errors.IslError` is a refusal: the transaction reverts,
and its :class:`Receipt` keeps that error, traceback dropped. Any other
exception is a crash; it re-raises having touched only the journal. The
log takes only settled entries: ``ok`` and reverted transactions, and
accounts every owner hook accepted.

``submit`` refuses, before logging, a method name that is not an ASCII
identifier, a bad ``value`` and any argument that is not a JSON scalar
(``str``, ``int``, ``bool``, ``None``): only those read back unchanged
from a log line, so only those replay. Every int that enters the log (an
argument, a ``value``, a starting balance) must fit one EVM word,
``|n| <= 2**256 - 1``, so that it always serializes.

Determinism matters more than anything else here: token and id
generation derive from the transaction sequence number, account
addresses derive from the number of accounts, and the whole history can be
re-executed from the log to reach a bit-identical state.

The persisted log has one entry per line, tab separated. Transaction
lines carry the fields of :class:`Transaction`; ``account`` lines record
account creation (address, starting balance, owner flag) so that a log
alone reconstructs balances during replay. :func:`parse_log_line` takes
only a line that :func:`format_log_entry` writes back byte for byte, and
:func:`replay` requires the replica to log each entry exactly as written.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from .errors import CorruptLog, InsufficientFunds, IslError, PayoutFailed, UnknownSender

if TYPE_CHECKING:
    from .contracts import Contract


class Transaction(NamedTuple):
    seq: int
    sender: str
    contract: str
    method: str
    args: tuple
    value: int


class AccountCreation(NamedTuple):
    address: str  # 40 lowercase hex chars
    balance: int
    owner: bool


class Receipt(NamedTuple):
    tx_id: str
    error: IslError | None  # the refusal, without its traceback; None if the tx ran
    return_value: object

    @property
    def status(self) -> str:
        return "ok" if self.error is None else "reverted"

    @property
    def revert_reason(self) -> str | None:
        """``"<ErrorName>: <detail>"``, as the CLI prints a refusal; None if the tx ran."""
        return None if self.error is None else f"{type(self.error).__name__}: {self.error}"


_MISSING = object()  # journaled "previous value" of a key that did not exist
_SCALARS = frozenset({str, int, bool, type(None)})  # the argument types a log line decodes to
WORD = 2**256 - 1  # the largest magnitude of an int the log takes


@dataclass(slots=True)
class CallContext:
    """What a contract method sees of the transaction executing it."""

    sender: str
    seq: int
    value: int
    contract: str
    _ledger: "Ledger"

    @property
    def tx_id(self) -> str:
        """The transaction's id, as receipts and registry entries carry it."""
        return f"tx-{self.seq}"

    def put(self, table: dict, key: object, value: object) -> None:
        """Set ``table[key] = value``, journaled so a failed transaction undoes it."""
        self._ledger._journal.append((table, key, table.get(key, _MISSING)))
        table[key] = value

    def pay_out(self, to: str, amount: int) -> None:
        """Move ``amount`` from this contract's held funds to an account."""
        balances = self._ledger._balances
        held = self._ledger._contract_balances
        if amount < 0:
            raise PayoutFailed(f"negative amount {amount}")
        if to not in balances:
            raise PayoutFailed(f"no account {to}")
        if held[self.contract] < amount:
            raise PayoutFailed(f"contract holds {held[self.contract]}")
        self.put(held, self.contract, held[self.contract] - amount)
        self.put(balances, to, balances[to] + amount)


def canonical_json(obj: object) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _require_amount(amount: object, what: str) -> None:
    # bool is an int subclass, but "True" in a log line does not parse back
    if not isinstance(amount, int) or isinstance(amount, bool):
        raise TypeError(f"{what} must be an int, got {amount!r}")
    if amount < 0:
        raise ValueError(f"{what} must be a non-negative int, got {amount!r}")
    if amount > WORD:
        raise ValueError(f"{what} must be at most 2**256 - 1")


class Ledger:
    def __init__(self) -> None:
        self._balances: dict[str, int] = {}
        self._contract_balances: dict[str, int] = {}
        self._contracts: dict[str, Contract] = {}
        self._next_seq = 1
        self.log: list[AccountCreation | Transaction] = []
        # (table, key, previous value) per write of the running transaction
        self._journal: list[tuple[dict, object, object]] = []

    # ---------------------------------------------------------------- accounts

    def create_account(self, initial_balance: int, owner: bool = False) -> AccountCreation:
        _require_amount(initial_balance, "initial balance")
        # only this method adds an account, so the count numbers the new one
        address = hashlib.sha256(str(len(self._balances) + 1).encode()).hexdigest()[:40]
        if owner:
            for contract in self._contracts.values():
                hook = getattr(contract, "on_owner_account", None)
                if hook is not None:
                    hook(address)
        self._balances[address] = initial_balance
        entry = AccountCreation(address, initial_balance, owner)
        self.log.append(entry)
        return entry

    def balance_of(self, address: str) -> int:
        if address not in self._balances:
            raise UnknownSender(f"no account {address}")
        return self._balances[address]

    def total_supply(self) -> int:
        return sum(self._balances.values()) + sum(self._contract_balances.values())

    # --------------------------------------------------------------- contracts

    def register_contract(self, contract: Contract) -> None:
        if contract.name in self._contracts:
            raise ValueError(f"contract {contract.name!r} already registered")
        self._contracts[contract.name] = contract
        self._contract_balances[contract.name] = 0

    def contract(self, name: str) -> Contract:
        return self._contracts[name]

    # --------------------------------------------------------------- execution

    def submit(
        self,
        sender: str,
        contract: str,
        method: str,
        args: Iterable = (),
        value: int = 0,
    ) -> Receipt:
        if sender not in self._balances:
            raise UnknownSender(f"no account {sender}")
        if contract not in self._contracts:
            raise ValueError(f"no contract {contract!r}")
        if not (isinstance(method, str) and method.isascii() and method.isidentifier()):
            raise ValueError(f"method must be an ASCII identifier, got {method!r}")
        _require_amount(value, "value")
        args = tuple(args)
        if any(type(a) is int and not -WORD <= a <= WORD for a in args):
            raise ValueError("int args must satisfy |n| <= 2**256 - 1")
        if not _SCALARS.issuperset(map(type, args)):
            raise ValueError(f"args must be JSON scalars (str, int, bool, None), got {args!r}")
        if self._balances[sender] < value:
            raise InsufficientFunds(
                f"balance {self._balances[sender]} cannot cover value {value}"
            )

        ctx = CallContext(sender, self._next_seq, value, contract, self)
        try:
            if value:  # a zero-value transfer would write both balances back unchanged
                ctx.put(self._balances, sender, self._balances[sender] - value)
                ctx.put(self._contract_balances, contract, self._contract_balances[contract] + value)
            ret = self._contracts[contract].call(ctx, method, args)
        except BaseException as exc:
            while self._journal:
                table, key, previous = self._journal.pop()
                if previous is _MISSING:
                    del table[key]
                else:
                    table[key] = previous
            if not isinstance(exc, IslError):
                raise
            receipt = Receipt(ctx.tx_id, exc.with_traceback(None), None)
        else:
            self._journal.clear()
            receipt = Receipt(ctx.tx_id, None, ret)
        self.log.append(Transaction(ctx.seq, sender, contract, method, args, value))
        self._next_seq += 1
        return receipt

    # ------------------------------------------------------------------- state

    def state_dict(self) -> dict:
        """What ``chainstate.json`` holds but ``meta``; each contract is under its name."""
        return {
            "balances": dict(sorted(self._balances.items())),
            "contract_balances": dict(sorted(self._contract_balances.items())),
            **{name: c.state_dict() for name, c in sorted(self._contracts.items())},
        }

    def canonical_state(self) -> bytes:
        return canonical_json(self.state_dict())


# -------------------------------------------------------------- serialization

# what ``json.dumps`` writes for each type a logged argument may have
_ENCODE_SCALAR = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _encode_args(args: tuple) -> str:
    """``args`` as the compact JSON array ``json.dumps`` writes, without its per-call set-up."""
    return "[" + ",".join([_ENCODE_SCALAR[type(a)](a) for a in args]) + "]"


def format_log_entry(entry: AccountCreation | Transaction) -> str:
    if isinstance(entry, AccountCreation):
        return (
            f"account\taddress={entry.address}\tbalance={entry.balance}"
            f"\towner={1 if entry.owner else 0}"
        )
    return (
        f"tx\tseq={entry.seq}\tsender={entry.sender}\tcontract={entry.contract}"
        f"\tmethod={entry.method}\tvalue={entry.value}\targs={_encode_args(entry.args)}"
    )


def _quote(text: str, show: Callable[[str], str] = repr) -> str:
    """``text`` as a ``CorruptLog`` shows it, through ``show``: one over 80 characters
    is cut to its first 80."""
    return show(text) if len(text) <= 80 else f"{show(text[:80])}… ({len(text)} chars)"


def parse_log_line(line: str) -> AccountCreation | Transaction:
    """The entry ``line`` holds; only a line :func:`format_log_entry` writes back is taken."""
    kind, *parts = line.split("\t")
    values = [part.partition("=")[2] for part in parts]
    try:
        if kind == "account":
            address, balance, owner = values
            entry = AccountCreation(address, int(balance), owner == "1")
        elif kind == "tx":
            seq, sender, contract, method, value, args = values
            args = tuple(json.loads(args))
            if not _SCALARS.issuperset(map(type, args)):
                raise ValueError("a logged argument is not a scalar")
            entry = Transaction(int(seq), sender, contract, method, args, int(value))
        else:
            raise CorruptLog(f"unknown log entry kind {_quote(kind)}")
    except (ValueError, TypeError, RecursionError):  # RecursionError: args nested too deep
        raise CorruptLog(f"unparseable log line: {_quote(line)}") from None
    if format_log_entry(entry) != line:
        raise CorruptLog(f"log line is not as the ledger writes it: {_quote(line)}")
    return entry


def log_lines(ledger: Ledger) -> list[str]:
    return [format_log_entry(e) for e in ledger.log]


def replay(
    entries: Iterable[AccountCreation | Transaction],
    contract_factory: Callable[[], list[Contract]],
) -> Ledger:
    """Re-execute a log from genesis and return the resulting ledger.

    The factory must build fresh contract instances wired exactly like
    the live network's. The replica must take each entry and log exactly
    it (same sequence number, same address); otherwise the log does not
    describe a real history.
    """
    replica = Ledger()
    for contract in contract_factory():
        replica.register_contract(contract)
    for entry in entries:
        try:
            if isinstance(entry, AccountCreation):
                replica.create_account(entry.balance, owner=entry.owner)
            else:
                replica.submit(entry.sender, entry.contract, entry.method, entry.args, entry.value)
        except (UnknownSender, InsufficientFunds, ValueError) as exc:
            raise CorruptLog(f"{_quote(format_log_entry(entry))} rejected on replay: "
                             f"{_quote(str(exc), str)}") from None
        if replica.log[-1] != entry:
            line, logged = format_log_entry(entry), format_log_entry(replica.log[-1])
            raise CorruptLog(f"log has {_quote(line)}, replay logs {_quote(logged)}")
    return replica
