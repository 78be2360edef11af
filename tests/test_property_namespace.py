"""Property-based tests: namespace vs a dict model, metadata round-trips."""

import copy
import json
import pickle
from dataclasses import fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fs.metadata import MetadataStore, _entry_json, decode_group, encode_group
from repro.fs.namespace import FileEntry, Namespace, dirname, normalize_path

# Path components: non-empty, no '/', no '.'/'..' semantics.
component = st.text(
    alphabet=st.sampled_from("abcdefgh0123_-"), min_size=1, max_size=6
)
path_strategy = st.builds(
    lambda parts: "/" + "/".join(parts),
    st.lists(component, min_size=1, max_size=4),
)


@st.composite
def namespace_ops(draw):
    n = draw(st.integers(1, 30))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(["upsert", "remove"]))
        path = draw(path_strategy)
        size = draw(st.integers(0, 10**6))
        ops.append((kind, path, size))
    return ops


class TestNamespaceModel:
    @given(ops=namespace_ops())
    def test_matches_dict_model(self, ops):
        ns = Namespace()
        model: dict[str, int] = {}
        for kind, path, size in ops:
            norm = normalize_path(path)
            if kind == "upsert":
                ns.upsert(FileEntry(path=norm, size=size))
                model[norm] = size
            else:
                if norm in model:
                    removed = ns.remove(norm)
                    assert removed.size == model.pop(norm)
                else:
                    try:
                        ns.remove(norm)
                        raise AssertionError("remove of missing path succeeded")
                    except FileNotFoundError:
                        pass
        assert ns.paths() == sorted(model)
        assert ns.total_bytes() == sum(model.values())
        # Directory listings partition the path set exactly.
        listed = [p for d in ns.directories() for p in ns.list_dir(d)]
        assert sorted(listed) == sorted(model)

    @given(ops=namespace_ops())
    def test_dirname_consistency(self, ops):
        ns = Namespace()
        for kind, path, size in ops:
            if kind == "upsert":
                ns.upsert(FileEntry(path=normalize_path(path), size=size))
        for d in ns.directories():
            for p in ns.list_dir(d):
                assert dirname(p) == d


class TestMetadataGroupProperties:
    @given(
        entries=st.lists(
            st.builds(
                FileEntry,
                path=path_strategy,
                size=st.integers(0, 10**9),
                version=st.integers(1, 100),
                codec=st.sampled_from(["replication", "raid5", "rs", "fmsr"]),
                klass=st.sampled_from(["small", "large", "metadata"]),
                created=st.floats(0, 1e9, allow_nan=False),
                modified=st.floats(0, 1e9, allow_nan=False),
                access_count=st.integers(0, 1000),
            ),
            max_size=10,
            unique_by=lambda e: e.path,
        )
    )
    @settings(max_examples=60)
    def test_group_roundtrip(self, entries):
        assert decode_group(encode_group(entries)) == sorted(
            entries, key=lambda e: e.path
        )


def reference_encode(entries) -> bytes:
    """The whole-list encoder ``fs.metadata`` shipped before groups were
    joined from per-entry fragments.  It lives on here, and only here, as
    the oracle: the incremental blob must equal it byte for byte."""
    payload = [
        {
            "path": e.path,
            "size": e.size,
            "version": e.version,
            "codec": e.codec,
            "codec_params": [[k, v] for k, v in e.codec_params],
            "placements": [[p, i] for p, i in e.placements],
            "klass": e.klass,
            "created": e.created,
            "modified": e.modified,
            "access_count": e.access_count,
            "digests": list(e.digests),
        }
        for e in sorted(entries, key=lambda e: e.path)
    ]
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()


# A handful of directories and names, so that interleaved ops keep landing on
# the same entries; the names carry what a JSON string has to escape.
awkward_names = st.sampled_from(
    ["a", "é", "漢字", "\U0001f600", 'q"uote', "back\\slash", "nul\x00", "tab\tnl\n", "\u2028"]
)
awkward_paths = st.builds(
    lambda directory, name: f"{directory}/{name}",
    st.sampled_from(["", "/d", "/d/é", '/"\\', "/\x1f"]),
    awkward_names,
)
awkward_floats = st.one_of(
    st.sampled_from([0.0, 1e-07, 0.1 + 0.2, 1e22, 5e-324, 2.5]),
    st.floats(0, 1e12, allow_nan=False),
)
awkward_ints = st.one_of(
    st.integers(0, 10**6), st.sampled_from([2**53, 2**53 + 1, 2**64 + 3])
)
awkward_entries = st.builds(
    FileEntry,
    path=awkward_paths,
    size=awkward_ints,
    version=st.integers(1, 5),
    codec=st.sampled_from(["replication", "raid5", "rs"]),
    codec_params=st.sampled_from([(), (("k", 3),), (("k", 2), ("m", 2**53))]),
    placements=st.sampled_from([(), (("aliyun", 0), ("azure", 1)), (("é", 2**40),)]),
    klass=st.sampled_from(["small", "large"]),
    created=awkward_floats,
    modified=awkward_floats,
    access_count=awkward_ints,
    digests=st.sampled_from([(), ("ab" * 32,), ("00" * 32, "ff" * 32, "é")]),
)
#: ways to get an entry that is ``==`` the original but a distinct object
CLONE = {
    "replace": replace,
    "pickle": lambda e: pickle.loads(pickle.dumps(e)),
    "deepcopy": copy.deepcopy,
}
group_ops = st.lists(
    st.one_of(
        st.tuples(st.just("upsert"), awkward_entries),
        st.tuples(st.just("touch"), awkward_paths),
        st.tuples(st.just("bump"), awkward_paths, awkward_ints, awkward_floats),
        st.tuples(st.just("remove"), awkward_paths),
        st.tuples(st.just("apply"), st.lists(awkward_entries, max_size=4)),
        st.tuples(st.just("clone"), awkward_paths, st.sampled_from(sorted(CLONE))),
    ),
    max_size=25,
)


class TestIncrementalGroupEncoding:
    """``encode_dir`` joins fragments memoised per entry object; whatever
    sequence of changes produced the namespace, the blob is the reference
    encoder's, and no fragment outlives the entry it was made from."""

    @given(ops=group_ops)
    @settings(max_examples=150, deadline=None)
    def test_blob_equals_whole_list_encoder(self, ops):
        ns = Namespace()
        store = MetadataStore(ns)
        for op in ops:
            kind, arg = op[0], op[1]
            if kind == "upsert":
                ns.upsert(arg)
            elif kind == "apply":
                store.apply_group(reference_encode({e.path: e for e in arg}.values()))
            elif arg in ns:
                entry = ns.get(arg)
                if kind == "touch":
                    ns.upsert(entry.touched())
                elif kind == "bump":
                    ns.upsert(entry.bumped(op[2], op[3]))
                elif kind == "remove":
                    ns.remove(arg)
                else:
                    ns.upsert(CLONE[op[2]](entry))
            # Checked after every step, so each later change meets fragments
            # memoised by this one.
            for directory in [*ns.directories(), "/never/written"]:
                entries = ns.entries_in(directory)
                blob = store.encode_dir(directory)
                assert blob == reference_encode(entries)
                assert decode_group(blob) == entries

    @given(entry=awkward_entries, primed=st.booleans())
    def test_equal_entries_encode_identically(self, entry, primed):
        expected = reference_encode([entry])
        if primed:  # the clones below then copy a memoised fragment along
            assert encode_group([entry]) == expected
        for clone in CLONE.values():
            twin = clone(entry)
            assert twin == entry and twin is not entry
            assert encode_group([twin]) == expected
        assert encode_group([entry]) == expected
        assert encode_group([]) == reference_encode([]) == b"[]"


any_text = st.text(max_size=12)
any_pairs = st.lists(st.tuples(any_text, awkward_ints), max_size=3).map(tuple)
any_number = st.one_of(awkward_floats, awkward_ints, st.floats())
#: every field drawn from all its type allows, control characters,
#: surrogate-free unicode and non-finite floats included
any_entries = st.builds(
    FileEntry,
    path=st.one_of(awkward_paths, any_text),
    size=awkward_ints,
    version=st.integers(1, 2**64),
    codec=any_text,
    codec_params=any_pairs,
    placements=any_pairs,
    klass=any_text,
    created=any_number,
    modified=any_number,
    access_count=awkward_ints,
    digests=st.lists(any_text, max_size=3).map(tuple),
)


class TestEntryJson:
    """An entry's JSON is written directly; ``json.dumps`` is the oracle."""

    @given(entry=st.one_of(awkward_entries, any_entries))
    @example(entry=FileEntry(path="/a\x01\x7f é", size=0, created=1e-07, modified=1e22))
    @example(
        entry=FileEntry(
            path='/"\\\x00', size=2**63, access_count=0, created=0.1 + 0.2, modified=2**63
        )
    )
    @example(entry=FileEntry(path="/e", size=0, created=float("inf"), modified=float("nan")))
    @settings(max_examples=200, deadline=None)
    def test_fragment_equals_json_dumps(self, entry):
        assert f"[{_entry_json(entry)}]".encode() == reference_encode([entry])


def reference_normalize(path: str) -> str:
    """``normalize_path`` as it was before canonical paths were returned as
    they are: split into segments, check each, join."""
    if not path or path == "/":
        raise ValueError(path)
    parts = [p for p in path.split("/") if p]
    if not parts:
        raise ValueError(path)
    for p in parts:
        if p in (".", ".."):
            raise ValueError(path)
    return "/" + "/".join(parts)


raw_paths = st.builds(
    lambda lead, segments, trail: lead + "/".join(segments) + trail,
    st.sampled_from(["", "/", "//"]),
    st.lists(
        st.sampled_from(["a", "b.c", "", ".", "..", "...", ".hidden", "d.", "é", " "]),
        max_size=5,
    ),
    st.sampled_from(["", "/", "/.", "/.."]),
)


class TestPerRequestShortcuts:
    """What the read path resolves without the general machinery answers
    exactly what the general machinery would."""

    @given(entry=awkward_entries, primed=st.booleans())
    def test_touched_is_replace_with_the_counter_bumped(self, entry, primed):
        if primed:
            encode_group([entry])  # memoise a fragment on the source
        touched = entry.touched()
        expected = replace(entry, access_count=entry.access_count + 1)
        assert touched == expected and type(touched) is FileEntry
        for f in fields(FileEntry):
            got, want = getattr(touched, f.name), getattr(expected, f.name)
            assert got == want and type(got) is type(want), f.name
        assert vars(touched) is not vars(entry)
        assert set(vars(touched)) == {f.name for f in fields(FileEntry)}
        assert encode_group([touched]) == reference_encode([expected])
        assert entry.access_count == expected.access_count - 1  # source untouched

    @given(path=raw_paths)
    @settings(max_examples=400)
    def test_normalize_path_equals_the_segment_splitting_reference(self, path):
        try:
            expected = reference_normalize(path)
        except ValueError:
            expected = None
        if expected is None:
            with pytest.raises(ValueError):
                normalize_path(path)
        else:
            assert normalize_path(path) == expected
            assert normalize_path(expected) == expected  # canonical is a fixed point
