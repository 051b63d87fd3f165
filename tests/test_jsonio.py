"""The canonical emitter ``jsonio.dumps`` against its oracle, the stdlib's
indented encoder with sorted keys and fixed separators."""

import json
import random

import pytest

from redform import cli, jsonio
from redform.cli import main


def oracle(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=2) + "\n"


# quotes, backslashes, control characters, DEL, non-ASCII inside and outside
# the basic plane, and plain text
CHARS = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/", " ", "a", "Z", "7", "é", "€", " ", "𝄞"]


def _rand_str(rng):
    return "".join(rng.choice(CHARS) for _ in range(rng.randrange(6)))


def _rand_scalar(rng):
    return rng.choice(
        [
            _rand_str(rng),
            rng.randint(-10, 10),
            rng.choice([-1, 1]) * rng.randrange(10 ** 60),
            True,
            False,
            None,
            rng.choice([0.5, -0.0, 1e300, -2.25]),
        ]
    )


def _rand_value(rng, depth=0):
    kind = rng.randrange(5 if depth < 4 else 1)
    if kind == 0:
        return _rand_scalar(rng)
    items = [_rand_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 1:
        return items
    if kind == 2:
        return tuple(items)
    if kind == 3:
        return [_rand_str(rng) for _ in range(rng.randrange(4))]
    return {_rand_str(rng): v for v in items}


@pytest.mark.parametrize("seed", range(20))
def test_seeded_payloads_match_the_oracle(seed):
    rng = random.Random(seed)
    for _ in range(25):
        payload = {_rand_str(rng): _rand_value(rng) for _ in range(rng.randrange(5))}
        assert jsonio.dumps(payload) == oracle(payload)
        value = _rand_value(rng)
        assert jsonio.dumps(value) == oracle(value)


@pytest.mark.parametrize(
    "payload",
    [
        [],
        {},
        (),
        [[], {}, ()],
        {"a": [], "b": {}, "c": [[]]},
        ["x", 1],
        [1, "x"],
        ["\x00\"\\", "é𝄞"],
        {"": "", "\n": " "},
        -(10 ** 200),
        [True, False, None],
        "plain",
        0,
    ],
)
def test_edge_payloads_match_the_oracle(payload):
    assert jsonio.dumps(payload) == oracle(payload)


class _List(list):
    pass


class _Str(str):
    pass


class _Dict(dict):
    pass


class _Int(int):
    pass


def test_subclasses_come_out_as_their_base_types():
    plain = {"rows": [["1", "x"], ["-2", "1/x"]], "n": 2}
    sub = _Dict(rows=_List([_List([_Str("1"), "x"]), ["-2", _Str("1/x")]]), n=_Int(2))
    assert jsonio.dumps(sub) == jsonio.dumps(plain) == oracle(sub)
    assert jsonio.dumps(_List([_Str("a"), _Str("b")])) == oracle(["a", "b"])


@pytest.mark.parametrize(
    "payload",
    [{1, 2}, [{1}], ["a", {1}], {"k": frozenset()}, {(1, 2): "v"}, b"bytes", object()],
    ids=["set", "set-in-list", "set-after-str", "frozenset-value", "tuple-key", "bytes", "object"],
)
def test_unsupported_values_are_type_errors(payload):
    with pytest.raises(TypeError):
        oracle(payload)
    with pytest.raises(TypeError):
        jsonio.dumps(payload)


@pytest.mark.parametrize("key", [1, 2.5, True, None])
def test_keys_other_than_strings_are_type_errors(key):
    # json writes these as strings; no payload has them
    with pytest.raises(TypeError):
        jsonio.dumps({key: "v"})


# one run of each command on the README system and its inputs
README_FILES = {
    "a.json": {"var": "x", "n": 2, "A": [["0", "1"], ["x", "1/(2*x)"]]},
    "swap.json": {"var": "x", "M": [["0", "1/x"], ["1", "0"]]},
    "p.json": {"var": "x", "M": [["1", "0"], ["x", "1"]]},
    "basis.json": {"n": 2, "generators": [[["1", "0"], ["0", "-1"]]]},
    "end.json": {"var": "x", "elements": [[["1", "0"], ["0", "1"]]]},
    "v.json": {"var": "x", "v": ["0", "1/x", "1", "0"]},
    "id.json": {"var": "x", "v": ["1", "0", "0", "1"]},
    "inv.json": {"var": "x", "invariants": [{"constr": "tensor(base,dual(base))", "v": ["1", "0", "0", "1"]}]},
    "lines.json": {"var": "x", "lines": [{"constr": "tensor(base,dual(base))", "v": ["0", "1/x", "1", "0"]}]},
}
END = "tensor(base,dual(base))"
COMMANDS = {
    "gauge": "--system a.json --P p.json",
    "pullback": "--system a.json --pullback 2",
    "constr": "--constr sym(2,base) --matrix swap.json",
    "series": "--system a.json --order 6",
    "ratsols": f"--system a.json --constr {END} --num-deg 4",
    "semiinv-check": f"--system a.json --constr {END} --vector v.json",
    "harvest": "--system a.json --constrs base;dual(base) --num-deg 4",
    "eigenring": "--system a.json --num-deg 8 --den x^8",
    "wei-norman": "--system a.json --basis basis.json",
    "check-reduced": "--system a.json --basis basis.json --lines lines.json --num-deg 4",
    "verify-reduction": "--system a.json --P p.json --invariants inv.json",
    "reduce": "--system a.json --semiinv swap.json --pullback 2",
    "katz-check": "--system a.json --basis end.json --invariants inv.json",
    "commutant": "--basis basis.json",
    "stabilizer-of-invariant": f"--constr {END} --vector id.json",
}


def test_every_command_is_covered():
    assert set(COMMANDS) == set(cli._COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_payload_matches_the_oracle(name, tmp_path, monkeypatch, capsys):
    for file, content in README_FILES.items():
        (tmp_path / file).write_text(json.dumps(content), encoding="utf-8")
    argv = [name] + [
        str(tmp_path / arg) if arg in README_FILES else arg for arg in COMMANDS[name].split()
    ]
    emitted = []
    dumps = jsonio.dumps

    def capture(payload):
        emitted.append(payload)
        return dumps(payload)

    monkeypatch.setattr(jsonio, "dumps", capture)
    code = main(argv)
    out = capsys.readouterr().out
    assert code in (0, 1, 2) and len(emitted) == 1
    payload = emitted[0]
    assert "error" not in payload or payload["error"]["reason"] != "internal_error"
    assert out == dumps(payload) == oracle(payload)
