import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from islsim import cas
from islsim.cas import BlobStore, content_address, is_address, write_atomic
from islsim.mlsim import RoomProfile, make_synthetic_room
from oracles import stored_addresses
from islsim.errors import NotFound

# sha-256 of b"hello" and b"", straight from the standard
HELLO = "2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824"
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def test_known_digests():
    assert content_address(b"hello") == HELLO
    assert content_address(b"") == EMPTY


def test_is_address():
    assert is_address(HELLO)
    assert not is_address(HELLO.upper())
    assert not is_address(HELLO[:-1])
    assert not is_address(HELLO + "0")
    assert not is_address("g" * 64)
    assert not is_address("")


@given(st.binary(max_size=512))
def test_address_is_deterministic_and_wellformed(data):
    addr = content_address(data)
    assert addr == content_address(data)
    assert is_address(addr)


def test_put_get_roundtrip(tmp_path):
    store = BlobStore(tmp_path)
    payload = b"some sensor readings\n1,2\n"
    addr = store.put(payload)
    assert addr == content_address(payload)
    assert store.get(addr) == payload
    assert store.contains(addr)


def test_layout_two_level_fanout(tmp_path):
    store = BlobStore(tmp_path)
    addr = store.put(b"hello")
    assert store.path_for(addr) == tmp_path / "blobs" / addr[:2] / addr
    assert store.path_for(addr).is_file()
    assert store.relative_uri(addr) == f"blobs/{addr[:2]}/{addr}"


def test_put_is_idempotent(tmp_path):
    store = BlobStore(tmp_path)
    a1 = store.put(b"x")
    a2 = store.put(b"x")
    assert a1 == a2
    assert stored_addresses(tmp_path) == [a1]


def test_get_missing_raises(tmp_path):
    store = BlobStore(tmp_path)
    with pytest.raises(NotFound):
        store.get(EMPTY)
    assert not store.contains(EMPTY)


def test_addresses_sorted(tmp_path):
    store = BlobStore(tmp_path)
    addrs = {store.put(bytes([i])) for i in range(5)}
    assert stored_addresses(tmp_path) == sorted(addrs)


def test_get_does_not_verify_content(tmp_path):
    # integrity checking is the consumer's job; the store returns what it has
    store = BlobStore(tmp_path)
    addr = store.put(b"original")
    store.path_for(addr).write_bytes(b"tampered")
    assert store.get(addr) == b"tampered"


@pytest.mark.parametrize("addr", ["../x", HELLO.upper()])
def test_get_of_a_non_address_opens_nothing(tmp_path, monkeypatch, addr):
    store = BlobStore(tmp_path)
    store.put(b"hello")

    def no_open(*args, **kwargs):
        raise AssertionError(f"opened {args[0]!r}")

    monkeypatch.setattr("builtins.open", no_open)
    monkeypatch.setattr("os.open", no_open)
    with pytest.raises(NotFound):
        store.get(addr)


def test_get_after_the_blob_or_its_fanout_is_deleted(tmp_path):
    store = BlobStore(tmp_path)
    addr = store.put(b"hello")
    path = store.path_for(addr)
    path.unlink()
    with pytest.raises(NotFound):
        store.get(addr)
    path.parent.rmdir()
    with pytest.raises(NotFound):
        store.get(addr)


def test_put_never_rewrites_an_existing_blob(tmp_path):
    store = BlobStore(tmp_path)
    addr = store.put(b"original")
    store.path_for(addr).write_bytes(b"tampered")
    assert store.put(b"original") == addr
    assert store.path_for(addr).read_bytes() == b"tampered"


def test_no_temp_file_is_left_behind(tmp_path):
    store = BlobStore(tmp_path)
    for i in range(3):
        store.put(bytes([i]) * 10)
    write_atomic(tmp_path / "state.json", b"{}\n")
    write_atomic(str(tmp_path / "log.txt"), b"entry\n")
    assert not list(tmp_path.rglob("*.tmp"))
    assert (tmp_path / "state.json").read_bytes() == b"{}\n"
    assert (tmp_path / "log.txt").read_bytes() == b"entry\n"
    assert len(stored_addresses(tmp_path)) == 3


def test_failed_rename_leaves_no_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr("os.replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write_atomic(tmp_path / "state.json", b"{}\n")
    assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_no_temp_file(tmp_path):
    with pytest.raises(TypeError):
        write_atomic(tmp_path / "state.json", "not bytes")  # type: ignore[arg-type]
    assert list(tmp_path.iterdir()) == []


def test_blobs_sharing_a_fanout_directory_and_a_store_without_a_root(tmp_path):
    first = b"0"
    second = next(
        data for data in (b"%d" % i for i in range(1, 10_000))
        if content_address(data)[:2] == content_address(first)[:2]
    )
    store = BlobStore(tmp_path / "not" / "yet")
    addrs = [store.put(first), store.put(second)]
    assert stored_addresses(tmp_path / "not" / "yet") == sorted(addrs)
    assert [store.get(addr) for addr in addrs] == [first, second]


def test_get_returns_a_blob_larger_than_one_read_chunk_and_closes_it(tmp_path, monkeypatch):
    # the size of the base datasets the ml_fit benchmark workload stores and reads
    data = make_synthetic_room(3, RoomProfile(2.0, 1.0, 0.05), 12_000).to_csv_bytes()
    assert len(data) > 2 * cas._READ_CHUNK
    store = BlobStore(tmp_path)
    addr = store.put(data)
    real_open = os.open
    fds = []

    def recording_open(*args, **kwargs):
        fds.append(real_open(*args, **kwargs))
        return fds[-1]

    monkeypatch.setattr("os.open", recording_open)
    assert store.get(addr) == data
    monkeypatch.undo()
    assert len(fds) == 1
    with pytest.raises(OSError):
        os.fstat(fds[0])


def test_short_writes_still_store_every_byte(tmp_path, monkeypatch):
    real_write = os.write
    calls = []

    def one_byte(fd, data):
        calls.append(len(data))
        return real_write(fd, bytes(data[:1]))

    monkeypatch.setattr("os.write", one_byte)
    payload = bytes(range(256)) * 3
    write_atomic(tmp_path / "state.json", payload)
    monkeypatch.undo()
    assert (tmp_path / "state.json").read_bytes() == payload
    assert calls == list(range(len(payload), 0, -1))
    assert list(tmp_path.iterdir()) == [tmp_path / "state.json"]


def test_a_write_that_fails_part_way_keeps_the_old_file(tmp_path, monkeypatch):
    target = tmp_path / "state.json"
    target.write_bytes(b"old bytes\n")
    real_write = os.write
    fds = []

    def fail_on_the_second_write(fd, data):
        fds.append(fd)
        if len(fds) > 1:
            raise OSError("disk full")
        return real_write(fd, bytes(data[:4]))

    monkeypatch.setattr("os.write", fail_on_the_second_write)
    with pytest.raises(OSError, match="disk full"):
        write_atomic(target, b"new bytes, longer than one write\n")
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_bytes() == b"old bytes\n"
    with pytest.raises(OSError):  # the temp file's descriptor was closed
        os.fstat(fds[0])
