"""Governance and marketplace contract rules, exercised through the ledger."""

import gc
import hashlib
import weakref
from pathlib import Path

import pytest

from islsim import errors
from islsim.contracts import IslContract, OracleContract
from islsim.ledger import Ledger
from islsim.node import Network
from test_ledger import Counter

ADDR_D = "1" * 64
ADDR_M = "2" * 64
ADDR_M2 = "3" * 64
TASK = "isl://vocab/task/occupancy_detection"


@pytest.fixture
def net():
    ledger = Ledger()
    oracle = OracleContract()
    ledger.register_contract(oracle)
    ledger.register_contract(IslContract(oracle))
    owner = ledger.create_account(1000, owner=True).address
    alice = ledger.create_account(500).address
    bob = ledger.create_account(500).address
    ledger.submit(owner, "oracle", "register_node", (alice,))
    ledger.submit(owner, "oracle", "register_node", (bob,))
    return ledger, oracle, owner, alice, bob


def ok(receipt):
    assert receipt.status == "ok", receipt.revert_reason
    return receipt


def reverted(receipt, error_name):
    assert receipt.status == "reverted"
    assert receipt.revert_reason.startswith(error_name + ":"), receipt.revert_reason
    return receipt


class TestGovernance:
    def test_owner_bound_at_account_creation(self, net):
        _, oracle, owner, _, _ = net
        assert oracle.state_dict()["owner"] == owner

    def test_only_owner_registers(self, net):
        ledger, oracle, _, alice, _ = net
        extra = ledger.create_account(10).address
        reverted(ledger.submit(alice, "oracle", "register_node", (extra,)), "Unauthorized")
        assert extra not in oracle.state_dict()["trusted"]

    def test_double_registration(self, net):
        ledger, _, owner, alice, _ = net
        reverted(ledger.submit(owner, "oracle", "register_node", (alice,)), "AlreadyRegistered")

    def test_unknown_method(self, net):
        ledger, _, _, alice, _ = net
        reverted(ledger.submit(alice, "oracle", "mint_money", ()), "UnknownMethod")

    def test_malformed_args(self, net):
        ledger, _, _, alice, _ = net
        reverted(ledger.submit(alice, "oracle", "share_dataset", ("only-one-arg",)), "MalformedArgs")

    @pytest.mark.parametrize(
        "method, args",
        [
            ("register_node", (42,)),
            ("register_node", ()),
            ("share_dataset", (5, ADDR_D)),
            ("share_dataset", ("isl://alice/dataset/d", 7)),
            ("share_dataset", ("isl://alice/dataset/d", "notanaddress")),
            ("share_dataset", ("isl://alice/dataset/d", "AB" * 32)),
            ("share_dataset", ("isl://alice/dataset/d", ADDR_D, None)),
            ("share_model", ("isl://alice/model/m", ADDR_M, "t", ADDR_D, False)),
        ],
    )
    def test_args_off_the_signature_revert_before_any_write(self, net, method, args):
        ledger, _, owner, alice, _ = net
        sender = owner if method == "register_node" else alice
        before = ledger.canonical_state()
        reverted(ledger.submit(sender, "oracle", method, args), "MalformedArgs")
        assert ledger.canonical_state() == before


class TestSharing:
    def test_share_dataset(self, net):
        ledger, oracle, _, alice, _ = net
        receipt = ok(ledger.submit(alice, "oracle", "share_dataset", ("isl://alice/dataset/d", ADDR_D)))
        assert receipt.return_value == receipt.tx_id
        entry = oracle.dataset_entry(ADDR_D)
        assert entry == {"owner": alice, "iri": "isl://alice/dataset/d", "tx_id": receipt.tx_id}

    def test_share_requires_trust(self, net):
        ledger, oracle, _, _, _ = net
        outsider = ledger.create_account(10).address
        reverted(
            ledger.submit(outsider, "oracle", "share_dataset", ("isl://x/dataset/d", ADDR_D)),
            "Unauthorized",
        )
        assert oracle.dataset_entry(ADDR_D) is None

    def test_share_once_per_address(self, net):
        ledger, oracle, _, alice, bob = net
        ok(ledger.submit(alice, "oracle", "share_dataset", ("isl://alice/dataset/d", ADDR_D)))
        reverted(
            ledger.submit(bob, "oracle", "share_dataset", ("isl://bob/dataset/d", ADDR_D)),
            "AlreadyShared",
        )
        assert oracle.dataset_entry(ADDR_D)["owner"] == alice

    def test_model_requires_shared_dataset(self, net):
        ledger, oracle, _, alice, _ = net
        reverted(
            ledger.submit(
                alice,
                "oracle",
                "share_model",
                ("isl://alice/model/m", ADDR_M, "isl://vocab/task/occupancy_detection", ADDR_D, None),
            ),
            "IncompleteChain",
        )
        assert oracle.model_entry(ADDR_M) is None

    def test_model_requires_shared_base(self, net):
        ledger, _, _, alice, _ = net
        ok(ledger.submit(alice, "oracle", "share_dataset", ("isl://alice/dataset/d", ADDR_D)))
        reverted(
            ledger.submit(
                alice,
                "oracle",
                "share_model",
                ("isl://alice/model/m", ADDR_M, "isl://vocab/task/occupancy_detection", ADDR_D, "9" * 64),
            ),
            "IncompleteChain",
        )

    def test_chain_and_task_index(self, net):
        ledger, oracle, _, alice, bob = net
        task = "isl://vocab/task/occupancy_detection"
        ok(ledger.submit(alice, "oracle", "share_dataset", ("isl://alice/dataset/d", ADDR_D)))
        ok(ledger.submit(alice, "oracle", "share_model", ("isl://alice/model/m", ADDR_M, task, ADDR_D, None)))
        ok(ledger.submit(bob, "oracle", "share_model", ("isl://bob/model/m2", ADDR_M2, task, ADDR_D, ADDR_M)))
        assert [row[0] for row in oracle.query_task(task)] == [ADDR_M, ADDR_M2]  # announcement order
        assert oracle.model_entry(ADDR_M2)["base_model_addr"] == ADDR_M
        assert oracle.check_closure() is None
        assert oracle.find_model_by_iri("isl://bob/model/m2") == ADDR_M2
        assert oracle.owner_of_resource(ADDR_D) == alice

    @pytest.mark.parametrize(
        "edit, reason",
        [
            pytest.param(lambda s: s["shared_datasets"].clear(),
                         f"model {ADDR_M}: training dataset {ADDR_D} is not shared", id="missing-dataset"),
            pytest.param(lambda s: s["shared_models"].pop(ADDR_M),
                         f"model {ADDR_M2}: base model {ADDR_M} is not shared", id="missing-base"),
            pytest.param(lambda s: s["shared_models"][ADDR_M].update(base_model_addr=ADDR_M2),
                         f"model {ADDR_M}: cycle through {ADDR_M}", id="base-cycle"),
            pytest.param(lambda s: s["shared_datasets"].update({ADDR_M: s["shared_datasets"][ADDR_D]}),
                         f"addresses registered in both roles: {[ADDR_M]}", id="both-tables"),
        ],
    )
    def test_check_closure_reports_a_hand_edited_registry(self, net, edit, reason):
        ledger, oracle, _, alice, bob = net
        ok(ledger.submit(alice, "oracle", "share_dataset", ("isl://alice/dataset/d", ADDR_D)))
        ok(ledger.submit(alice, "oracle", "share_model", ("isl://alice/model/m", ADDR_M, TASK, ADDR_D, None)))
        ok(ledger.submit(bob, "oracle", "share_model", ("isl://bob/model/m2", ADDR_M2, TASK, ADDR_D, ADDR_M)))
        assert oracle.check_closure() is None
        edit(oracle.state)
        assert oracle.check_closure() == reason

    def test_task_index_lists_the_ok_shares_in_share_order(self, net):
        ledger, oracle, _, alice, bob = net
        other = "isl://vocab/task/energy_prediction"
        a2, a3, a4, a5, a6 = "2" * 64, "3" * 64, "4" * 64, "5" * 64, "6" * 64

        def share(sender, local, addr, task, base=None):
            args = (f"isl://x/model/{local}", addr, task, ADDR_D, base)
            return ledger.submit(sender, "oracle", "share_model", args)

        ok(ledger.submit(alice, "oracle", "share_dataset", ("isl://alice/dataset/d", ADDR_D)))
        ok(share(alice, "m5", a5, TASK))
        reverted(share(bob, "m6", a6, TASK, base="9" * 64), "IncompleteChain")
        ok(share(bob, "m4", a4, other, base=a5))
        reverted(share(bob, "again", a5, other), "AlreadyShared")
        ok(share(alice, "m2", a2, TASK))
        reverted(share(alice, "m6", a6, other, base="9" * 64), "IncompleteChain")
        ok(share(bob, "m3", a3, other))
        assert ledger.state_dict()["oracle"]["task_index"] == {other: [a4, a3], TASK: [a5, a2]}
        assert oracle.check_closure() is None

    def test_role_separation(self, net):
        ledger, _, _, alice, _ = net
        task = "isl://vocab/task/occupancy_detection"
        ok(ledger.submit(alice, "oracle", "share_dataset", ("isl://alice/dataset/d", ADDR_D)))
        # an address can hold only one role, whichever came first
        reverted(
            ledger.submit(alice, "oracle", "share_model", ("isl://alice/model/m", ADDR_D, task, ADDR_D, None)),
            "AlreadyShared",
        )


class TestPricing:
    @pytest.fixture
    def shared(self, net):
        ledger, oracle, owner, alice, bob = net
        task = "isl://vocab/task/occupancy_detection"
        ok(ledger.submit(alice, "oracle", "share_dataset", ("isl://alice/dataset/d", ADDR_D)))
        ok(ledger.submit(alice, "oracle", "share_model", ("isl://alice/model/m", ADDR_M, task, ADDR_D, None)))
        return ledger, oracle, owner, alice, bob

    def test_default_price_is_zero(self, shared):
        ledger, _, _, _, bob = shared
        isl = ledger.contract("isl")
        assert isl.price_of(ADDR_M) == 0
        ok(ledger.submit(bob, "isl", "acquire", (ADDR_M,)))

    def test_set_price_owner_only(self, shared):
        ledger, _, _, alice, bob = shared
        reverted(ledger.submit(bob, "isl", "set_price", (ADDR_M, 5)), "Unauthorized")
        ok(ledger.submit(alice, "isl", "set_price", (ADDR_M, 5)))
        assert ledger.contract("isl").price_of(ADDR_M) == 5

    def test_set_price_validation(self, shared):
        ledger, _, _, alice, _ = shared
        reverted(ledger.submit(alice, "isl", "set_price", (ADDR_M, -1)), "MalformedArgs")
        reverted(ledger.submit(alice, "isl", "set_price", (ADDR_M, "8")), "MalformedArgs")
        reverted(ledger.submit(alice, "isl", "set_price", (ADDR_M, True)), "MalformedArgs")
        reverted(ledger.submit(alice, "isl", "set_price", ("4" * 64, 5)), "UnknownResource")

    def test_acquire_moves_exact_price(self, shared):
        ledger, _, _, alice, bob = shared
        ok(ledger.submit(alice, "isl", "set_price", (ADDR_M, 40)))
        before_bob = ledger.balance_of(bob)
        before_alice = ledger.balance_of(alice)
        receipt = ok(ledger.submit(bob, "isl", "acquire", (ADDR_M,), value=40))
        assert ledger.balance_of(bob) == before_bob - 40
        assert ledger.balance_of(alice) == before_alice + 40
        assert ledger.state_dict()["contract_balances"]["isl"] == 0
        grant = receipt.return_value
        assert grant["resource_location"] == ADDR_M
        expected = hashlib.sha256(f"{ledger.log[-1].seq}:{ADDR_M}:{bob}".encode()).hexdigest()
        assert grant["token"] == expected

    @pytest.mark.parametrize("payment", [0, 39, 41])
    def test_wrong_payment(self, shared, payment):
        ledger, _, _, alice, bob = shared
        ok(ledger.submit(alice, "isl", "set_price", (ADDR_M, 40)))
        before = ledger.canonical_state()
        reverted(ledger.submit(bob, "isl", "acquire", (ADDR_M,), value=payment), "WrongPayment")
        assert ledger.canonical_state() == before

    def test_acquire_unknown_or_untrusted(self, shared):
        ledger, _, _, _, bob = shared
        outsider = ledger.create_account(100).address
        reverted(ledger.submit(outsider, "isl", "acquire", (ADDR_M,)), "Unauthorized")
        reverted(ledger.submit(bob, "isl", "acquire", ("5" * 64,)), "UnknownResource")

    def test_tokens_are_scoped(self, shared):
        ledger, _, _, alice, bob = shared
        isl = ledger.contract("isl")
        grant = ok(ledger.submit(bob, "isl", "acquire", (ADDR_M,))).return_value
        token = grant["token"]
        assert isl.validate_token(token, ADDR_M, bob)
        assert not isl.validate_token(token, ADDR_M, alice)
        assert not isl.validate_token(token, ADDR_D, bob)
        assert not isl.validate_token("deadbeef", ADDR_M, bob)

    def test_tokens_list_only_the_ok_acquires(self, shared):
        ledger, _, _, alice, bob = shared
        token = ok(ledger.submit(bob, "isl", "acquire", (ADDR_M,))).return_value["token"]
        ok(ledger.submit(alice, "isl", "set_price", (ADDR_M, 40)))
        reverted(ledger.submit(bob, "isl", "acquire", (ADDR_M,), value=39), "WrongPayment")
        assert ledger.state_dict()["isl"]["tokens"] == {token: True}
        assert list(ledger.contract("isl").state["acquisitions"]) == [token]

    def test_dataset_acquire_also_works(self, shared):
        ledger, _, _, alice, bob = shared
        ok(ledger.submit(alice, "isl", "set_price", (ADDR_D, 3)))
        receipt = ok(ledger.submit(bob, "isl", "acquire", (ADDR_D,), value=3))
        assert receipt.return_value["resource_location"] == ADDR_D


def test_contract_state_holds_no_derived_table(net):
    ledger, oracle, _, _, _ = net
    assert "task_index" not in oracle.state
    assert "tokens" not in ledger.contract("isl").state
    state = ledger.state_dict()  # chainstate.json still carries both
    assert state["oracle"]["task_index"] == {} and state["isl"]["tokens"] == {}


# One row per refusal an op or ``CallContext.pay_out`` raises: (sender, contract,
# method, args, value, error class, revert_reason). "{name}" in an argument or a
# reason stands for that account of the ``refusals`` fixture.
MODEL = "isl://alice/model/m"
REFUSALS = {
    "unknown-method": ("alice", "oracle", "mint_money", (), 0, errors.UnknownMethod,
                       "UnknownMethod: oracle has no method 'mint_money'"),
    "arity": ("alice", "oracle", "share_dataset", ("only-one-arg",), 0, errors.MalformedArgs,
              "MalformedArgs: oracle.share_dataset does not take ('only-one-arg',)"),
    "type": ("alice", "isl", "set_price", (ADDR_D, True), 0, errors.MalformedArgs,
             f"MalformedArgs: isl.set_price does not take ('{ADDR_D}', True)"),
    "non-address": ("alice", "oracle", "share_dataset", ("isl://alice/dataset/x", "AB" * 32), 0,
                    errors.MalformedArgs, f"MalformedArgs: '{'AB' * 32}' is not a content address"),
    "negative-price": ("alice", "isl", "set_price", (ADDR_D, -5), 0, errors.MalformedArgs,
                       "MalformedArgs: price must be a non-negative integer, got -5"),
    "register-by-node": ("alice", "oracle", "register_node", ("{carol}",), 0, errors.Unauthorized,
                         "Unauthorized: only the network owner may register nodes"),
    "share-by-stranger": ("carol", "oracle", "share_dataset", ("isl://carol/dataset/x", ADDR_M2), 0,
                          errors.Unauthorized, "Unauthorized: caller is not a registered node"),
    "price-by-other": ("bob", "isl", "set_price", (ADDR_D, 5), 0, errors.Unauthorized,
                       "Unauthorized: only the resource owner may set its price"),
    "register-twice": ("owner", "oracle", "register_node", ("{alice}",), 0,
                       errors.AlreadyRegistered, "AlreadyRegistered: {alice} is already trusted"),
    "unshared-dataset": ("alice", "oracle", "share_model", (MODEL, ADDR_M, TASK, ADDR_M2, None), 0,
                         errors.IncompleteChain,
                         f"IncompleteChain: training dataset {ADDR_M2} is not shared"),
    "unshared-base": ("alice", "oracle", "share_model", (MODEL, ADDR_M, TASK, ADDR_D, ADDR_M2), 0,
                      errors.IncompleteChain, f"IncompleteChain: base model {ADDR_M2} is not shared"),
    "share-twice": ("bob", "oracle", "share_dataset", ("isl://bob/dataset/d", ADDR_D), 0,
                    errors.AlreadyShared, f"AlreadyShared: {ADDR_D} is already registered"),
    "price-unknown": ("alice", "isl", "set_price", (ADDR_M2, 5), 0, errors.UnknownResource,
                      f"UnknownResource: {ADDR_M2} is not registered"),
    "acquire-unknown": ("bob", "isl", "acquire", (ADDR_M2,), 0, errors.UnknownResource,
                        f"UnknownResource: {ADDR_M2} is not registered"),
    "wrong-payment": ("bob", "isl", "acquire", (ADDR_D,), 2, errors.WrongPayment,
                      "WrongPayment: posted price is 3, payment was 2"),
    "payout": ("alice", "counter", "pay", ("{bob}", 60), 10, errors.PayoutFailed,
               "PayoutFailed: contract holds 10"),
}


@pytest.fixture
def refusals(net):
    """A network over ``net`` with alice's dataset at price 3, unregistered carol and a Counter."""
    ledger, _, owner, alice, bob = net
    ok(ledger.submit(alice, "oracle", "share_dataset", ("isl://alice/dataset/d", ADDR_D)))
    ok(ledger.submit(alice, "isl", "set_price", (ADDR_D, 3)))
    ledger.register_contract(Counter())
    carol = ledger.create_account(100).address
    accounts = {"owner": owner, "alice": alice, "bob": bob, "carol": carol}
    return Network(Path("unused"), ledger), accounts


@pytest.mark.parametrize("row", REFUSALS.values(), ids=REFUSALS)
def test_a_refusal_is_one_typed_error_from_raise_to_caller(refusals, row):
    network, accounts = refusals
    sender, contract, method, args, value, error, reason = row
    ledger, receipts = network.ledger, []
    submit = ledger.submit
    ledger.submit = lambda *a, **kw: receipts.append(submit(*a, **kw)) or receipts[-1]
    before = ledger.canonical_state()
    args = tuple(a.format(**accounts) if isinstance(a, str) else a for a in args)
    with pytest.raises(errors.IslError) as raised:
        network.submit(accounts[sender], contract, method, args, value)
    (receipt,) = receipts
    assert type(receipt.error) is error
    assert receipt.revert_reason == reason.format(**accounts)
    assert raised.value is receipt.error
    assert ledger.canonical_state() == before


def test_a_raised_refusal_needs_no_cycle_collector(refusals):
    network, accounts = refusals
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            network.submit(accounts["carol"], "oracle", "share_dataset",
                           ("isl://carol/dataset/x", ADDR_M2))
        except errors.Unauthorized as exc:
            freed = weakref.ref(exc)
        assert freed() is None
    finally:
        if enabled:
            gc.enable()
