"""Ledger semantics: serial execution, atomicity, conservation, replay."""

import hashlib
import json
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from islsim.cli import _replay_log
from islsim.errors import (
    CorruptLog, InsufficientFunds, PayoutFailed, UnknownMethod, UnknownResource, UnknownSender,
)
from islsim.ledger import (
    WORD,
    AccountCreation,
    Ledger,
    Transaction,
    format_log_entry,
    log_lines,
    parse_log,
    parse_log_line,
    replay,
)
from islsim.node import Network


class Counter:
    """Minimal contract: increments, or reverts after mutating state."""

    name = "counter"

    def __init__(self):
        self.state = {"count": 0, "spent": 0}

    def call(self, ctx, method, args):
        if method == "bump":
            ctx.put(self.state, "count", self.state["count"] + 1)
            return self.state["count"]
        if method == "pay":
            (to, amount) = args
            ctx.put(self.state, "spent", self.state["spent"] + amount)
            ctx.pay_out(to, amount)
            return None
        if method == "boom":
            ctx.put(self.state, "count", self.state["count"] + 100)  # must be rolled back
            raise UnknownResource("deliberate failure")
        raise UnknownMethod(method)

    def state_dict(self):
        return dict(self.state)


@pytest.fixture
def ledger():
    led = Ledger()
    led.register_contract(Counter())
    return led


def counter_factory():
    return [Counter()]


class CrashingCounter(Counter):
    """Counter whose ``crash`` method writes state, then fails with a bug."""

    def call(self, ctx, method, args):
        if method == "crash":
            ctx.put(self.state, "count", self.state["count"] + 1000)
            raise RuntimeError("contract bug")
        if method == "named_crash":  # reads like a refusal, but is no IslError
            ctx.put(self.state, "count", self.state["count"] + 1000)
            raise ValueError("Unauthorized: x")
        return super().call(ctx, method, args)


def test_account_addresses_are_deterministic(ledger):
    a = ledger.create_account(10)
    b = ledger.create_account(20)
    assert a.address == hashlib.sha256(b"1").hexdigest()[:40]
    assert b.address == hashlib.sha256(b"2").hexdigest()[:40]
    assert ledger.balance_of(a.address) == 10
    assert ledger.total_supply() == 30


def test_negative_balance_rejected(ledger):
    with pytest.raises(ValueError):
        ledger.create_account(-1)


def test_submit_executes_and_logs(ledger):
    acct = ledger.create_account(100)
    receipt = ledger.submit(acct.address, "counter", "bump")
    assert receipt.status == "ok"
    assert receipt.tx_id == "tx-1"
    assert receipt.return_value == 1
    assert len(ledger.log) == 2  # account line + tx line


def test_revert_restores_contract_and_balances(ledger):
    acct = ledger.create_account(100)
    before = ledger.canonical_state()
    receipt = ledger.submit(acct.address, "counter", "boom", value=30)  # raised after a ctx.put
    assert receipt.status == "reverted"
    assert receipt.revert_reason == "UnknownResource: deliberate failure"
    # the receipt keeps the raised error itself, pinning no frames
    assert type(receipt.error) is UnknownResource and receipt.error.__traceback__ is None
    assert ledger.canonical_state() == before
    # the attempt itself is still part of history
    assert isinstance(ledger.log[-1], Transaction)
    assert ledger.log[-1].method == "boom"


def test_any_other_exception_is_a_crash_whatever_its_text():
    led = Ledger()
    led.register_contract(CrashingCounter())
    acct = led.create_account(100)
    before = led.canonical_state(), list(led.log)
    with pytest.raises(ValueError, match="^Unauthorized: x$"):
        led.submit(acct.address, "counter", "named_crash", value=30)
    assert (led.canonical_state(), led.log) == before


@pytest.mark.parametrize("args, value, reason", [
    (("{payee}", -5), 0, "negative amount -5"),
    (("f" * 40, 5), 5, f"no account {'f' * 40}"),
])
def test_a_payout_to_nobody_or_of_a_negative_amount_is_payout_failed(ledger, args, value, reason):
    payer, payee = ledger.create_account(100), ledger.create_account(0)
    args = tuple(a.format(payee=payee.address) if isinstance(a, str) else a for a in args)
    receipt = ledger.submit(payer.address, "counter", "pay", args, value=value)
    assert type(receipt.error) is PayoutFailed and str(receipt.error) == reason


def test_value_moves_to_contract_then_out(ledger):
    payer = ledger.create_account(100)
    payee = ledger.create_account(0)
    ledger.submit(payer.address, "counter", "pay", (payee.address, 25), value=25)
    assert ledger.balance_of(payer.address) == 75
    assert ledger.balance_of(payee.address) == 25
    assert ledger.state_dict()["contract_balances"]["counter"] == 0
    assert ledger.total_supply() == 100


def test_payout_cannot_overdraw(ledger):
    payer = ledger.create_account(100)
    payee = ledger.create_account(0)
    # contract tries to pay out more than the tx carried
    receipt = ledger.submit(payer.address, "counter", "pay", (payee.address, 60), value=10)
    assert receipt.status == "reverted"
    assert type(receipt.error) is PayoutFailed
    assert receipt.revert_reason == "PayoutFailed: contract holds 10"
    assert ledger.balance_of(payer.address) == 100
    assert ledger.balance_of(payee.address) == 0


def test_unknown_sender_rejected_before_logging(ledger):
    log_len = len(ledger.log)
    with pytest.raises(UnknownSender):
        ledger.submit("f" * 40, "counter", "bump")
    assert len(ledger.log) == log_len


def test_insufficient_funds_rejected_before_logging(ledger):
    acct = ledger.create_account(5)
    log_len = len(ledger.log)
    with pytest.raises(InsufficientFunds):
        ledger.submit(acct.address, "counter", "bump", value=6)
    assert len(ledger.log) == log_len


def test_conservation_across_mixed_session(ledger):
    a = ledger.create_account(50)
    b = ledger.create_account(70)
    supply = ledger.total_supply()
    ledger.submit(a.address, "counter", "pay", (b.address, 10), value=10)
    ledger.submit(b.address, "counter", "boom", value=5)
    ledger.submit(b.address, "counter", "bump")
    assert ledger.total_supply() == supply


@pytest.mark.parametrize("value", [0.5, True])
def test_non_int_value_rejected_before_logging(ledger, value):
    acct = ledger.create_account(5)
    log_len = len(ledger.log)
    with pytest.raises(TypeError, match="value must be an int"):
        ledger.submit(acct.address, "counter", "bump", value=value)
    assert len(ledger.log) == log_len


@pytest.mark.parametrize("args", [(("b",),), (b"x",), ("a", ["b"]), ({},), (1.5,)])
def test_non_scalar_args_rejected_before_logging(ledger, args):
    acct = ledger.create_account(5)
    before = ledger.canonical_state(), len(ledger.log)
    with pytest.raises(ValueError):
        ledger.submit(acct.address, "counter", "bump", args)
    assert (ledger.canonical_state(), len(ledger.log)) == before


@pytest.mark.parametrize("where", ["value", "arg", "negative arg", "balance"])
def test_ints_beyond_one_word_rejected_before_logging(ledger, where):
    acct = ledger.create_account(5)
    before = ledger.canonical_state(), len(ledger.log)
    with pytest.raises(ValueError):
        if where == "value":
            ledger.submit(acct.address, "counter", "bump", value=WORD + 1)
        elif where == "balance":
            ledger.create_account(WORD + 1)
        else:
            big = WORD + 1 if where == "arg" else -(WORD + 1)
            ledger.submit(acct.address, "counter", "pay", (acct.address, big))
    assert (ledger.canonical_state(), len(ledger.log)) == before


@pytest.mark.parametrize("method", ["share\tdataset", "bump\n", "bümp", "", None])
def test_method_that_is_not_an_ascii_identifier_rejected_before_logging(ledger, method):
    acct = ledger.create_account(5)
    before = ledger.canonical_state(), len(ledger.log)
    with pytest.raises(ValueError):
        ledger.submit(acct.address, "counter", method)
    assert (ledger.canonical_state(), len(ledger.log)) == before


def test_non_int_initial_balance_rejected(ledger):
    with pytest.raises(TypeError, match="initial balance must be an int"):
        ledger.create_account(1.5)
    assert ledger.log == []
    assert ledger.create_account(1).address == hashlib.sha256(b"1").hexdigest()[:40]


def test_crash_is_rolled_back_and_dropped_from_log():
    led = Ledger()
    led.register_contract(CrashingCounter())
    acct = led.create_account(100)
    led.submit(acct.address, "counter", "bump")

    def observed():
        return led.canonical_state(), len(led.log)

    before = observed()
    with pytest.raises(RuntimeError, match="contract bug"):
        led.submit(acct.address, "counter", "crash", value=30)
    assert observed() == before
    assert led.submit(acct.address, "counter", "bump").tx_id == "tx-2"


def test_second_owner_account_is_refused_before_logging():
    led = Ledger()
    for contract in Network.contract_factory():
        led.register_contract(contract)
    led.create_account(100, owner=True)
    led.create_account(40)

    def observed():
        return led.canonical_state(), log_lines(led)

    before = observed()
    with pytest.raises(ValueError, match="second owner account"):
        led.create_account(50, owner=True)
    assert observed() == before
    assert led.total_supply() == 140
    assert led.create_account(1).address == hashlib.sha256(b"3").hexdigest()[:40]
    replica = replay([parse_log_line(line) for line in log_lines(led)], Network.contract_factory)
    assert replica.canonical_state() == led.canonical_state()


# ------------------------------------------------------------------ log text

def test_log_line_roundtrip_account():
    entry = AccountCreation("ab" * 20, 500, True)
    assert parse_log_line(format_log_entry(entry)) == entry


@given(
    st.lists(
        st.one_of(
            st.integers(-(10**12), 10**12),
            st.text(max_size=20),
            st.none(),
        ),
        max_size=4,
    ),
    st.integers(0, 10**9),
)
def test_log_line_roundtrip_tx(args, value):
    entry = Transaction(7, "cd" * 20, "oracle", "share_dataset", tuple(args), value)
    assert parse_log_line(format_log_entry(entry)) == entry


@given(
    st.lists(
        st.one_of(
            st.integers(-WORD, WORD),
            st.text(st.characters(blacklist_categories=())),  # surrogates and controls too
            st.booleans(),
            st.none(),
        ),
        max_size=5,
    )
)
def test_logged_args_are_the_json_array_of_the_args(args):
    line = format_log_entry(Transaction(1, "cd" * 20, "oracle", "share_dataset", tuple(args), 0))
    assert line.endswith("\targs=" + json.dumps(args, separators=(",", ":")))


@pytest.mark.parametrize(
    "line",
    [
        "",
        "tx",
        "unknown\tfoo=1",
        "account\tbalance=5\taddress=aa\towner=0",  # wrong field order
        "account\taddress=aa\tbalance=5\towner=2",
        "tx\tseq=1\tsender=aa\tcontract=c\tmethod=m\tvalue=0\targs={}",
        "tx\tseq=x\tsender=aa\tcontract=c\tmethod=m\tvalue=0\targs=[]",
        # lines that read as a valid entry, but not as the ledger writes it
        "tx\tseq=0_1\tsender=aa\tcontract=c\tmethod=m\tvalue=0\targs=[]",
        "tx\tseq=1\tsender=aa\tcontract=c\tmethod=m\tvalue=+0\targs=[]",
        "account\taddress=aa\tbalance= 5\towner=0",
        'tx\tseq=1\tsender=aa\tcontract=c\tmethod=m\tvalue=0\targs=["a", 1]',
        "account\taddres=aa\tbalance=5\towner=0",
    ],
)
def test_parse_log_line_rejects_garbage(line):
    with pytest.raises(CorruptLog):
        parse_log_line(line)


@pytest.mark.parametrize("args", [
    "[1.5]", '["a",["b"]]', '[{"k":1}]',
    pytest.param("[" * 4 * sys.getrecursionlimit() + "]" * 4 * sys.getrecursionlimit(),
                 id="nested-too-deep-to-parse"),
])
def test_parse_log_line_refuses_non_scalar_args(args):
    line = f"tx\tseq=1\tsender=aa\tcontract=c\tmethod=m\tvalue=0\targs={args}"
    with pytest.raises(CorruptLog, match="^unparseable log line"):
        parse_log_line(line)


_NUMBER = st.one_of(
    st.integers(-(10**6), 10**6).map(str), st.from_regex(r"[ +-]?[0-9_]{1,3} ?", fullmatch=True)
)
_WORD = st.text(st.characters(blacklist_characters="\t", blacklist_categories=("Cs",)), max_size=6)
_ARGS = st.builds(
    lambda args, sep, ascii_only: json.dumps(args, separators=sep, ensure_ascii=ascii_only),
    st.one_of(st.lists(st.one_of(st.integers(), st.text(max_size=4), st.none(), st.booleans()),
                       max_size=3),
              st.dictionaries(st.text(max_size=2), st.integers(), max_size=2), st.integers()),
    st.sampled_from([(",", ":"), (", ", ": ")]),
    st.booleans(),
)
_LINE_FIELDS = {
    "account": [("address", _WORD), ("balance", _NUMBER), ("owner", st.sampled_from("0112 "))],
    "tx": [("seq", _NUMBER), ("sender", _WORD), ("contract", _WORD), ("method", _WORD),
           ("value", _NUMBER), ("args", _ARGS)],
}


@st.composite
def near_log_lines(draw):
    """Log lines with each field close to, and often exactly, what the ledger writes."""
    kind = draw(st.sampled_from(sorted(_LINE_FIELDS)))
    fields = [
        f"{draw(st.sampled_from([key, key, key.title()]))}={draw(values)}"
        for key, values in _LINE_FIELDS[kind]
    ]
    return "\t".join([kind] + fields)


@given(near_log_lines())
def test_parse_log_line_accepts_only_what_format_log_entry_writes(line):
    try:
        entry = parse_log_line(line)
    except CorruptLog:
        return
    assert format_log_entry(entry) == line


# ----------------------------------------------------------- whole-log text

_SCALAR_ARGS = st.lists(
    st.one_of(
        st.integers(-WORD, WORD),
        st.text(st.characters(blacklist_categories=())),  # surrogates and controls too
        st.booleans(),
        st.none(),
    ),
    max_size=4,
)
_ENTRIES = st.one_of(
    st.builds(AccountCreation, st.text("0123456789abcdef", min_size=40, max_size=40),
              st.integers(0, WORD), st.booleans()),
    st.builds(Transaction, st.integers(0, 10**6), st.text("0123456789abcdef", max_size=40),
              st.sampled_from(["oracle", "isl", "counter"]),
              st.sampled_from(["bump", "share_dataset", "acquire"]),
              _SCALAR_ARGS.map(tuple), st.integers(0, WORD)),
)


def _log_text(lines):
    return "".join(line + "\n" for line in lines)


@st.composite
def edited_log_lines(draw):
    """A line the ledger writes, with one field's value drawn as ``near_log_lines`` draws it."""
    kind, *fields = format_log_entry(draw(_ENTRIES)).split("\t")
    at = draw(st.integers(0, len(fields) - 1))
    key, values = _LINE_FIELDS[kind][at]
    fields[at] = f"{key}={draw(values)}"
    return "\t".join([kind] + fields)


@st.composite
def near_logs(draw):
    """Log texts of lines the ledger writes with up to two lines close to them put in, at
    times with two lines swapped, the final newline dropped, or every newline a CRLF."""
    lines = draw(st.lists(_ENTRIES.map(format_log_entry), max_size=4))
    for near in draw(st.lists(st.one_of(edited_log_lines(), near_log_lines()), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), near)
    if len(lines) > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(len(lines))))[:2]
        lines[i], lines[j] = lines[j], lines[i]
    edit = draw(st.sampled_from(["none"] * 4 + ["no final newline", "crlf"]))
    text = "".join(line + ("\r\n" if edit == "crlf" else "\n") for line in lines)
    return text[:-1] if edit == "no final newline" else text


@given(near_logs())
def test_the_whole_log_parse_is_the_line_by_line_parse_or_none(text):
    entries = parse_log(text)
    if entries is None:
        return
    lines = text.split("\n")
    assert lines.pop() == ""
    # repr, so that True and 1 (or 0 and False) in args are told apart
    assert repr(entries) == repr([parse_log_line(line) for line in lines])


@given(st.lists(st.tuples(st.sampled_from(["bump", "boom", "no_such_method"]), st.integers(0, 2),
                          st.integers(0, 40), _SCALAR_ARGS), max_size=12),
       st.integers(0, WORD))
def test_the_whole_log_parse_takes_every_log_the_ledger_writes(ops, balance):
    led = Ledger()
    led.register_contract(Counter())
    accounts = [led.create_account(balance, owner=n == 0).address for n in range(3)]
    for method, who, value, args in ops:
        try:
            led.submit(accounts[who], "counter", method, args, value=value)
        except InsufficientFunds:
            pass
    assert repr(parse_log(_log_text(log_lines(led)))) == repr(led.log)


@pytest.mark.parametrize("field, near", [
    ("owner", "2"), ("owner", "00"), ("owner", ""), ("balance", "01"), ("balance", "-0"),
    ("balance", "1" * 5000), ("seq", "+1"), ("seq", " 1"), ("value", "1_0"), ("value", "0x1"),
    ("args", "[1,2] "), ("args", "[1.0]"), ("args", "[[1]]"), ("args", '["\\u00E9"]'),
    ("args", "[true ]"), ("args", "[NaN]"), ("args", '{"a":1}'), ("args", "[-0]"),
])
def test_the_whole_log_parse_refuses_a_field_the_line_parse_refuses(field, near):
    lines = log_lines(build_session())
    at = next(i for i, line in enumerate(lines) if f"\t{field}=" in line)
    lines[at] = re.sub(rf"\t{field}=[^\t]*", lambda _: f"\t{field}={near}", lines[at])
    with pytest.raises(CorruptLog):
        parse_log_line(lines[at])
    assert parse_log(_log_text(lines)) is None


def _bump_lines(args_texts, first_seq):
    sender = "ab" * 20
    return [f"tx\tseq={seq}\tsender={sender}\tcontract=counter\tmethod=bump\tvalue=0\targs={args}"
            for seq, args in enumerate(args_texts, start=first_seq)]


# one decode of these lines' args joined would give three flat arrays of scalars, each on
# the wrong line, and dump back to the joined text
ALIGNMENT_TRIO = ['["a]', '[",1]', '[2],[3]']


def test_each_line_args_are_decoded_on_their_own():
    joined = "[" + ",".join(ALIGNMENT_TRIO) + "]"
    assert json.loads(joined) == [["a],[", 1], [2], [3]]
    assert json.dumps(json.loads(joined), separators=(",", ":")) == joined
    lines = log_lines(build_session()) + _bump_lines(ALIGNMENT_TRIO, first_seq=5)
    assert parse_log(_log_text(lines)) is None
    with pytest.raises(CorruptLog, match="^unparseable log line"):
        parse_log_line(lines[-3])


def test_a_late_line_not_as_the_ledger_writes_it_fails_the_whole_log_parse():
    lines = log_lines(build_session())
    assert parse_log(_log_text(lines + _bump_lines(["[1,2]"], first_seq=5)))[-1].args == (1, 2)
    assert parse_log(_log_text(lines + _bump_lines(["[1, 2]"], first_seq=5))) is None


def test_a_line_rejected_on_replay_is_named_before_a_later_unparseable_one(tmp_path):
    led = Ledger()
    for contract in Network.contract_factory():
        led.register_contract(contract)
    led.create_account(100, owner=True)
    rejected = f"tx\tseq=1\tsender={'f' * 40}\tcontract=oracle\tmethod=register_node\tvalue=0\targs=[]"
    log_path = tmp_path / "ledger.log"
    log_path.write_text(_log_text(log_lines(led) + [rejected, "tx\tseq=nine"]))
    with pytest.raises(CorruptLog, match=f"^'tx\\\\tseq=1\\\\t.* rejected on replay: no account {'f' * 40}$"):
        _replay_log(log_path)


# -------------------------------------------------------------------- replay

def build_session():
    led = Ledger()
    led.register_contract(Counter())
    a = led.create_account(100)
    b = led.create_account(40, owner=True)
    led.submit(a.address, "counter", "bump")
    led.submit(a.address, "counter", "pay", (b.address, 30), value=30)
    led.submit(b.address, "counter", "boom")  # reverted, still logged
    led.submit(b.address, "counter", "bump")
    return led


def test_replay_reproduces_state_exactly():
    led = build_session()
    entries = [parse_log_line(line) for line in log_lines(led)]
    replica = replay(entries, counter_factory)
    assert replica.canonical_state() == led.canonical_state()
    assert log_lines(replica) == log_lines(led)


def test_replay_detects_sequence_gap():
    led = build_session()
    entries = [parse_log_line(line) for line in log_lines(led)]
    dropped = [e for e in entries if not (isinstance(e, Transaction) and e.seq == 2)]
    with pytest.raises(CorruptLog):
        replay(dropped, counter_factory)


def _index_of_tx(entries, seq):
    return next(i for i, e in enumerate(entries) if isinstance(e, Transaction) and e.seq == seq)


def drop_tx_2(entries):
    del entries[_index_of_tx(entries, 2)]


def swap_tx_2_and_3(entries):
    i, j = _index_of_tx(entries, 2), _index_of_tx(entries, 3)
    entries[i], entries[j] = entries[j], entries[i]


@pytest.mark.parametrize("edit", [drop_tx_2, swap_tx_2_and_3], ids=["dropped", "swapped"])
def test_replay_names_the_first_diverging_line(edit):
    entries = [parse_log_line(line) for line in log_lines(build_session())]
    edit(entries)
    with pytest.raises(CorruptLog) as excinfo:
        replay(entries, counter_factory)
    # the log's line for seq 3 stands where the replica logs seq 2
    assert "seq=3" in str(excinfo.value) and "seq=2" in str(excinfo.value)


def test_replay_detects_account_mismatch():
    led = build_session()
    entries = [parse_log_line(line) for line in log_lines(led)]
    forged = [
        AccountCreation("0" * 40, e.balance, e.owner) if isinstance(e, AccountCreation) and e.balance == 100 else e
        for e in entries
    ]
    with pytest.raises(CorruptLog):
        replay(forged, counter_factory)


@pytest.mark.parametrize("balance", [-5, WORD + 1], ids=["negative", "above-word"])
def test_replay_rejects_an_account_line_with_a_bad_balance(balance):
    lines = [line.replace("\tbalance=100\t", f"\tbalance={balance}\t") for line in log_lines(build_session())]
    entries = [parse_log_line(line) for line in lines]
    assert AccountCreation(entries[0].address, balance, False) in entries
    with pytest.raises(CorruptLog, match="rejected on replay"):
        replay(entries, counter_factory)


def test_replay_detects_unfunded_transaction():
    led = build_session()
    entries = [parse_log_line(line) for line in log_lines(led)]
    forged = [
        Transaction(e.seq, e.sender, e.contract, e.method, e.args, 10**9)
        if isinstance(e, Transaction) and e.seq == 2
        else e
        for e in entries
    ]
    with pytest.raises(CorruptLog):
        replay(forged, counter_factory)


# A refusal quotes a log line's first 80 characters and its length, so a huge line
# still gives a short message that names the entry's seq=.

def assert_short_and_names_seq(excinfo):
    message = str(excinfo.value)
    assert len(message) < 300 and "seq=" in message


HUGE = "x" * 300_000


def test_an_args_field_nested_too_deep_is_quoted_in_part():
    line = f"tx\tseq=1\tsender={'aa' * 20}\tcontract=c\tmethod=m\tvalue=0\targs="
    with pytest.raises(CorruptLog, match="^unparseable log line") as excinfo:
        parse_log_line(line + "[" * 100_000 + "]" * 100_000)
    assert_short_and_names_seq(excinfo)


def test_a_huge_line_not_as_the_ledger_writes_it_is_quoted_in_part():
    line = f'tx\tseq=1\tsender={"aa" * 20}\tcontract=c\tmethod=m\tvalue=0\targs=["{HUGE}", 1]'
    with pytest.raises(CorruptLog, match="^log line is not as the ledger writes it") as excinfo:
        parse_log_line(line)
    assert_short_and_names_seq(excinfo)


def test_a_huge_line_rejected_on_replay_is_quoted_in_part():
    entries = [parse_log_line(line) for line in log_lines(build_session())]
    entries.append(Transaction(5, "ff" * 20, "counter", "bump", (HUGE,), 0))  # no such sender
    with pytest.raises(CorruptLog, match="rejected on replay") as excinfo:
        replay(entries, counter_factory)
    assert_short_and_names_seq(excinfo)


def _replay_with_a_last_tx(**fields):
    """The CorruptLog text of replaying a session plus one bump tx with ``fields`` set."""
    entries = [parse_log_line(line) for line in log_lines(build_session())]
    tx = dict(seq=5, sender=entries[0].address, contract="counter", method="bump", args=(), value=0)
    entries.append(Transaction(**{**tx, **fields}))
    with pytest.raises(CorruptLog, match="rejected on replay") as excinfo:
        replay(entries, counter_factory)
    return excinfo


@pytest.mark.parametrize("field", ["sender", "contract"])
def test_a_huge_value_the_submit_error_echoes_is_cut_on_replay(field):
    excinfo = _replay_with_a_last_tx(**{field: "f" * 300_000})
    assert_short_and_names_seq(excinfo)
    assert str(excinfo.value).endswith("… (300011 chars)" if field == "sender" else "… (300014 chars)")


@pytest.mark.parametrize("field, echoed", [("sender", "no account ffff"),
                                           ("contract", "no contract 'ffff'")])
def test_a_short_submit_error_is_echoed_whole_on_replay(field, echoed):
    excinfo = _replay_with_a_last_tx(**{field: "ffff"})
    assert str(excinfo.value).endswith(" rejected on replay: " + echoed)


def test_a_huge_line_replay_logs_otherwise_is_quoted_in_part():
    entries = [parse_log_line(line) for line in log_lines(build_session())]
    sender = entries[0].address
    entries.append(Transaction(9, sender, "counter", "bump", (HUGE,), 0))  # the replica logs seq 5
    with pytest.raises(CorruptLog, match="^log has ") as excinfo:
        replay(entries, counter_factory)
    assert_short_and_names_seq(excinfo)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["bump", "boom", "crash", "pay"]),
            st.integers(0, 2),  # sender index
            st.integers(0, 40),  # value carried
            st.integers(0, 40),  # amount paid out: above what the contract holds fails
        ),
        max_size=25,
    )
)
def test_every_live_log_replays_to_the_same_state(ops):
    led = Ledger()
    led.register_contract(CrashingCounter())
    accounts = [led.create_account(60).address for _ in range(3)]
    for method, who, value, amount in ops:
        args = (accounts[(who + 1) % 3], amount) if method == "pay" else ()
        try:
            led.submit(accounts[who], "counter", method, args, value=value)
        except (RuntimeError, InsufficientFunds):
            pass
    assert led.total_supply() == 180
    entries = [parse_log_line(line) for line in log_lines(led)]
    replica = replay(entries, lambda: [CrashingCounter()])
    assert replica.canonical_state() == led.canonical_state()
    assert log_lines(replica) == log_lines(led)


# ---------------------------------------------- replay over the real contracts

ACCOUNTS = [hashlib.sha256(str(n).encode()).hexdigest()[:40] for n in range(1, 5)]
ADDRS = ["1" * 64, "2" * 64, "3" * 64, "4" * 64]  # two meant for datasets, two for models
IRIS = ["isl://alice/dataset/d", "isl://alice/model/m", "isl://vocab/task/occupancy_detection"]
NEAR_MISSES = ["1" * 63, "2" * 65, "3" * 63 + "g", "A" * 64, "", "isl://", ACCOUNTS[1] + "00"]
# every method's well-typed arguments, drawn from small pools so that states repeat
SIGNATURES = {
    ("oracle", "register_node"): (ACCOUNTS,),
    ("oracle", "share_dataset"): (IRIS, ADDRS[:2]),
    ("oracle", "share_model"): (IRIS, ADDRS[2:], IRIS, ADDRS[:2], [None] + ADDRS[2:]),
    ("isl", "set_price"): (ADDRS, [-1, 0, 5]),
    ("isl", "acquire"): (ADDRS,),
}
# the known methods three times as often as three unknown ones, which get one IRI argument;
# a tab in a method name would split its log line
CALLS = sorted(SIGNATURES) * 3 + [
    ("oracle", "mint_money"), ("isl", "share_dataset"), ("oracle", "share\tdataset")
]
WILD = st.one_of(
    st.integers(-3, 10**6),
    st.booleans(),
    st.none(),
    st.binary(max_size=3),
    st.tuples(st.sampled_from(ADDRS)),
    st.lists(st.sampled_from(ADDRS), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
    st.floats(allow_nan=True),
    st.sampled_from(NEAR_MISSES + ADDRS + IRIS),
    st.just(10**5000),  # too long for int -> str
    st.just(2**256),  # one past the word bound
)


@st.composite
def real_transactions(draw):
    contract, method = draw(st.sampled_from(CALLS))
    args = [draw(st.sampled_from(pool)) for pool in SIGNATURES.get((contract, method), [IRIS])]
    mutation = draw(st.sampled_from(["none", "none", "none", "replace", "drop", "extend"]))
    if mutation == "replace" and args:
        args[draw(st.integers(0, len(args) - 1))] = draw(WILD)
    elif mutation == "drop" and args:
        args.pop()
    elif mutation == "extend":
        args.append(draw(WILD))
    sender = draw(st.sampled_from(ACCOUNTS[1:3] * 3 + ACCOUNTS))  # mostly registered nodes
    value = draw(st.sampled_from([0, 0, 5]))
    return sender, contract, method, draw(st.sampled_from([tuple, list]))(args), value


@given(st.lists(real_transactions(), max_size=25))
def test_every_live_log_over_the_real_contracts_replays_to_the_same_state(txs):
    led = Ledger()
    for contract in Network.contract_factory():
        led.register_contract(contract)
    assert [led.create_account(100, owner=n == 0).address for n in range(4)] == ACCOUNTS
    for node in ACCOUNTS[1:3]:  # the last account stays an outsider
        led.submit(ACCOUNTS[0], "oracle", "register_node", (node,))
    led.submit(ACCOUNTS[1], "oracle", "share_dataset", (IRIS[0], ADDRS[0]))
    led.submit(ACCOUNTS[1], "oracle", "share_model", (IRIS[1], ADDRS[2], IRIS[2], ADDRS[0], None))
    for sender, contract, method, args, value in txs:
        before = led.canonical_state(), log_lines(led)
        try:
            led.submit(sender, contract, method, args, value=value)
        except (ValueError, InsufficientFunds):
            assert (led.canonical_state(), log_lines(led)) == before
    assert led.contract("oracle").check_closure() is None
    entries = [parse_log_line(line) for line in log_lines(led)]
    replica = replay(entries, Network.contract_factory)
    assert replica.canonical_state() == led.canonical_state()
    assert log_lines(replica) == log_lines(led)


def test_ints_of_one_word_replay_to_the_same_state():
    led = Ledger()
    for contract in Network.contract_factory():
        led.register_contract(contract)
    accounts = [led.create_account(WORD, owner=n == 0).address for n in range(3)]
    for node in accounts[1:]:
        led.submit(accounts[0], "oracle", "register_node", (node,))
    led.submit(accounts[1], "oracle", "share_dataset", (IRIS[0], ADDRS[0]))
    receipts = [
        led.submit(accounts[1], "isl", "set_price", (ADDRS[0], -WORD)),
        led.submit(accounts[1], "isl", "set_price", (ADDRS[0], WORD)),
        led.submit(accounts[2], "isl", "acquire", (ADDRS[0],), value=WORD),
    ]
    assert [r.status for r in receipts] == ["reverted", "ok", "ok"]
    assert led.balance_of(accounts[1]) == 2 * WORD
    entries = [parse_log_line(line) for line in log_lines(led)]
    replica = replay(entries, Network.contract_factory)
    assert replica.canonical_state() == led.canonical_state()
    assert log_lines(replica) == log_lines(led)
