"""Every command's text report, pinned byte for byte.

The text a command prints renders the report that its `--json` prints;
these pins hold those bytes still. Each command line below runs on each
bundled example, plain and under `--quiet`, with `GRACT_COLOR=0`, and the
two colored programs run again under `GRACT_COLOR=1`. `run --strategy
fifo` and `explore` take `--unsafe` where the program is rejected; the
replayed run does not, so it keeps the refusal. The fifo run stops at 300
steps, where the unsolvable recursion's run is cut by the budget: every
third step adds a thread, so the default 1,000 steps take seconds. The
sha256 is that of standard output, a NUL, and standard error. Commands
run from the checkout's root with relative paths, so no message depends
on where the checkout lives.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from gract.cli import main

from corpus import EXAMPLES

ACCEPTED = {"cafe", "clearance"}
COLORED = ("cafe", "cafe-nocup")


def _argv(name: str, kind: str) -> list[str]:
    unsafe = [] if name in ACCEPTED else ["--unsafe"]
    prog = f"examples/{name}.gract"
    return {"check": ["check", prog],
            "run": ["run", prog, "--strategy", "fifo", "--steps", "300", *unsafe],
            "run-replay": ["run", prog, "--replay", "examples/cafe-replay.json"],
            "explore": ["explore", prog, *unsafe],
            "sr": ["sr", prog, "--runs", "3", "--seed", "2"],
            "sr-replay": ["sr", prog, "--replay", "examples/corrupted-trace.json"]}[kind]


def _output(monkeypatch, name, kind, quiet, color) -> tuple[int, str]:
    monkeypatch.chdir(EXAMPLES.parent)
    monkeypatch.setenv("GRACT_COLOR", "1" if color else "0")
    argv = _argv(name, kind) + (["--quiet"] if quiet else [])
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    text = out.getvalue() + "\0" + err.getvalue()
    return code, hashlib.sha256(text.encode()).hexdigest()


# program, command, --quiet, colored: exit code, sha256 of the output
PINNED = {
    ("cafe", "check", False, False):
        (0, "6eff8196a7fb51ef9f5be388e912432e9054f690b37ac2b02206b0ee15959a78"),
    ("cafe", "check", False, True):
        (0, "54400999a5c3d98ea3578569dcfa7e9ee65c9b0f3ac1739ef6492f06eb5e6c47"),
    ("cafe", "check", True, False):
        (0, "815dce9c060c7db70f0603145e7f7de842d4278b7c0dd203d4d54ee5095757b8"),
    ("cafe", "check", True, True):
        (0, "487a2024fb82471b4e406927009c04bca1bbe7648648a962a9cd63f394d3a833"),
    ("cafe", "explore", False, False):
        (0, "a7344497a4e214c48b2826963e5d5d641d13c1a43c9e9430079696c0360e07b9"),
    ("cafe", "explore", False, True):
        (0, "4175d74a063d9a26ad96eb7f341fb27dd03e08140acb643d84c95980a409ebcd"),
    ("cafe", "explore", True, False):
        (0, "b9d9284e0e01006b56b5a5c3a1e58297af623e59a4a7d1bca5481d3ec53baba4"),
    ("cafe", "explore", True, True):
        (0, "c4c37887126eec5d7c722f61ae5f4913c1f110145cb2f7f444b40b259748672d"),
    ("cafe", "run", False, False):
        (0, "90e10e672f654eccf276da0600f1b0672d8bc49bb27fda9d16eaad2716c449d1"),
    ("cafe", "run", False, True):
        (0, "66a3a855201c5cf9d48654a71d075befde80a296255222386d0838b0cb32aed7"),
    ("cafe", "run", True, False):
        (0, "0ffbdeb3a974c180123f416aa5f7e8329c220fc56e31c4a4f2ddd2e8879b95de"),
    ("cafe", "run", True, True):
        (0, "3e15033c213d59101c4643e6e280b85cc6c3b2aa823e80e381c5855251912bf0"),
    ("cafe", "run-replay", False, False):
        (0, "71af6633d3d80825ac4f0ab8eacc4058cafe3c3e6336e008c4f678c14112879f"),
    ("cafe", "run-replay", False, True):
        (0, "57451b7fd1b9018d0c8b6c433ed4b445d767992bc224f24150485dcc3395e767"),
    ("cafe", "run-replay", True, False):
        (0, "02334e8dd5f4801214726552f9e0253f5c0c694ed4bcb790308b4a30bc017e31"),
    ("cafe", "run-replay", True, True):
        (0, "10fa308284399d4685fa02f4c97342c00cbb9222f102f8e0290c186610b0c166"),
    ("cafe", "sr", False, False):
        (0, "2c653ac86c7531d41c03ffbc2c94a3e9fcdb7a8875f25e424548dc7d4b9a4830"),
    ("cafe", "sr", False, True):
        (0, "af556186b23d63a1416aff70242cc1ea48a234acda886bfc2bba282005d7b57b"),
    ("cafe", "sr", True, False):
        (0, "815dce9c060c7db70f0603145e7f7de842d4278b7c0dd203d4d54ee5095757b8"),
    ("cafe", "sr", True, True):
        (0, "487a2024fb82471b4e406927009c04bca1bbe7648648a962a9cd63f394d3a833"),
    ("cafe", "sr-replay", False, False):
        (5, "ce384129d46d854fec108a7dd07dd2e6d56a03d00d218a345bed8955caa1b575"),
    ("cafe", "sr-replay", False, True):
        (5, "9f64d3047e889433f5fbf79cbd3fc699c158355ad76eefc46f604b15fb3f3d54"),
    ("cafe", "sr-replay", True, False):
        (5, "08f2335558e1bc7b86fca4f77aac02d628b3bb2609602f1d8526512a02c63459"),
    ("cafe", "sr-replay", True, True):
        (5, "36e828f52bf0a41945a51653c382a7b94f4cb57473854ac0ecf51eb6d315abb8"),
    ("cafe-nocup", "check", False, False):
        (1, "cb85cc8a509892323f274391faabb35c27bc7439479b27d27b7daaf35ccfc73e"),
    ("cafe-nocup", "check", False, True):
        (1, "7d7e46fb9835663b103ac14d7fc94dc582ebadcb0bb030df919b212b491b108b"),
    ("cafe-nocup", "check", True, False):
        (1, "08f2335558e1bc7b86fca4f77aac02d628b3bb2609602f1d8526512a02c63459"),
    ("cafe-nocup", "check", True, True):
        (1, "36e828f52bf0a41945a51653c382a7b94f4cb57473854ac0ecf51eb6d315abb8"),
    ("cafe-nocup", "explore", False, False):
        (4, "3cecfc7382b12e36aa523b45ea06cc5388a471170541173664515f37dbb85485"),
    ("cafe-nocup", "explore", False, True):
        (4, "0de2af0d1c4a72d6cbf1a7e5be5df9bff6362b5e7aaa9ec78cfce4c49230be90"),
    ("cafe-nocup", "explore", True, False):
        (4, "d480aa5465b7bd2e07ca03b85350ec085330a5167caa298b622dbbebe116df72"),
    ("cafe-nocup", "explore", True, True):
        (4, "31d5f3be051fac0bfe720577bba803e276e1991d05ccbbce3a0497b91c2cb40e"),
    ("cafe-nocup", "run", False, False):
        (4, "d14dd142d6b7d279beb622741e05d43e8a95908791799198d7bb4c636c829e16"),
    ("cafe-nocup", "run", False, True):
        (4, "9af81fd191c905d685363e375554d5e46a20f7ca1f83ca6f7b616956633f6391"),
    ("cafe-nocup", "run", True, False):
        (4, "9e08099d30a6f01dbac931ff07d8e748a8427414aa0a0ce33dfe9c5ed9725140"),
    ("cafe-nocup", "run", True, True):
        (4, "f13b7fb970efa8c781398914f30ec13a70d76564a64d0268475a486a0670c476"),
    ("cafe-nocup", "run-replay", False, False):
        (1, "0aa257de3c0e00c6b635215fa75463c1592314cbca1afd77c56347f0289bb2bc"),
    ("cafe-nocup", "run-replay", False, True):
        (1, "0aa257de3c0e00c6b635215fa75463c1592314cbca1afd77c56347f0289bb2bc"),
    ("cafe-nocup", "run-replay", True, False):
        (1, "0aa257de3c0e00c6b635215fa75463c1592314cbca1afd77c56347f0289bb2bc"),
    ("cafe-nocup", "run-replay", True, True):
        (1, "0aa257de3c0e00c6b635215fa75463c1592314cbca1afd77c56347f0289bb2bc"),
    ("cafe-nocup", "sr", False, False):
        (5, "8607438837878f86a2dde680e3c7c7474f548616fc11f8ee2aa59eaf033c900f"),
    ("cafe-nocup", "sr", False, True):
        (5, "58eb6357f94d27d3a86a9a58645502d534900213bbed7e23755bd0b6d2dd7f8e"),
    ("cafe-nocup", "sr", True, False):
        (5, "08f2335558e1bc7b86fca4f77aac02d628b3bb2609602f1d8526512a02c63459"),
    ("cafe-nocup", "sr", True, True):
        (5, "36e828f52bf0a41945a51653c382a7b94f4cb57473854ac0ecf51eb6d315abb8"),
    ("cafe-nocup", "sr-replay", False, False):
        (4, "57e9780ded79b43225adfe48ca394d3e5acd08eba8cf9577ce83a34002f18d03"),
    ("cafe-nocup", "sr-replay", False, True):
        (4, "57e9780ded79b43225adfe48ca394d3e5acd08eba8cf9577ce83a34002f18d03"),
    ("cafe-nocup", "sr-replay", True, False):
        (4, "57e9780ded79b43225adfe48ca394d3e5acd08eba8cf9577ce83a34002f18d03"),
    ("cafe-nocup", "sr-replay", True, True):
        (4, "57e9780ded79b43225adfe48ca394d3e5acd08eba8cf9577ce83a34002f18d03"),
    ("clearance", "check", False, False):
        (0, "d97fdcf242c7e1239015504e8eeee57495073604bbc1985db630a72a43b773f6"),
    ("clearance", "check", True, False):
        (0, "815dce9c060c7db70f0603145e7f7de842d4278b7c0dd203d4d54ee5095757b8"),
    ("clearance", "explore", False, False):
        (0, "4ecd0532a20792f9fcb86835c1fc8de84befa922b05c05bd7a6adcb01db618f0"),
    ("clearance", "explore", True, False):
        (0, "b9d9284e0e01006b56b5a5c3a1e58297af623e59a4a7d1bca5481d3ec53baba4"),
    ("clearance", "run", False, False):
        (0, "b1a37db2568ed3d88eeac02b3c28b5a50a541cdd47de4c05d5d3da652cf873dd"),
    ("clearance", "run", True, False):
        (0, "26653bf4ca82e6e309923bfe4f450b096c976246f45c9b4f2fb97de260d089c7"),
    ("clearance", "run-replay", False, False):
        (4, "b0ca997e88f1463db263c3356a59ba2d92a01a91f21b4c16f689de73f35a88d1"),
    ("clearance", "run-replay", True, False):
        (4, "b0ca997e88f1463db263c3356a59ba2d92a01a91f21b4c16f689de73f35a88d1"),
    ("clearance", "sr", False, False):
        (0, "21e2a0e32d8b886fc96da918754c334efc2ab7d10963373c462bc47d3eae0087"),
    ("clearance", "sr", True, False):
        (0, "815dce9c060c7db70f0603145e7f7de842d4278b7c0dd203d4d54ee5095757b8"),
    ("clearance", "sr-replay", False, False):
        (4, "cf270072e8db031783e81c4c6ee070be6e0c01976067bf5c5d81bf802a275f3d"),
    ("clearance", "sr-replay", True, False):
        (4, "cf270072e8db031783e81c4c6ee070be6e0c01976067bf5c5d81bf802a275f3d"),
    ("linear-future", "check", False, False):
        (1, "65c72892782ef2a44bfc305ca29d43e0030e924e2c0034328402d70d823273c0"),
    ("linear-future", "check", True, False):
        (1, "08f2335558e1bc7b86fca4f77aac02d628b3bb2609602f1d8526512a02c63459"),
    ("linear-future", "explore", False, False):
        (4, "61794417ecc1a158baeac2756aeb9645dc2f80ebbc2f57a7eb9ba214bff9ce01"),
    ("linear-future", "explore", True, False):
        (4, "ea0d008b00d041b4fea662ff5609a34ad343433649c9b753f9476279389e2112"),
    ("linear-future", "run", False, False):
        (4, "29ba55fa773d12bc8450a9b5d9812923078efe1ed1ecc7150afddd8589d1140c"),
    ("linear-future", "run", True, False):
        (4, "e68a7dbd39d575a7e478e8d80c9d9eb9afdb6d3f4bf94905d9dfb50953a8c90a"),
    ("linear-future", "run-replay", False, False):
        (1, "fcc7291b93f9f4cdbb5a5a6476ca84cdb8817665d814dbb14c4dc87ac2c3df49"),
    ("linear-future", "run-replay", True, False):
        (1, "fcc7291b93f9f4cdbb5a5a6476ca84cdb8817665d814dbb14c4dc87ac2c3df49"),
    ("linear-future", "sr", False, False):
        (5, "6d7342583f220ad149e473bf7193151a36f4fe9e114b4041d8e6ddc0e59f8151"),
    ("linear-future", "sr", True, False):
        (5, "08f2335558e1bc7b86fca4f77aac02d628b3bb2609602f1d8526512a02c63459"),
    ("linear-future", "sr-replay", False, False):
        (4, "e64dc426e6df20b2273661e62a125a0d89226506feda1dff04a9f05592e6f2e5"),
    ("linear-future", "sr-replay", True, False):
        (4, "e64dc426e6df20b2273661e62a125a0d89226506feda1dff04a9f05592e6f2e5"),
    ("recursive-unsolvable", "check", False, False):
        (1, "dae9b528e5c76affb862b507c3b9317f5caac0dfe6ebd980c02018ee5ead8cf3"),
    ("recursive-unsolvable", "check", True, False):
        (1, "08f2335558e1bc7b86fca4f77aac02d628b3bb2609602f1d8526512a02c63459"),
    ("recursive-unsolvable", "explore", False, False):
        (4, "8ac50c708af1a4c67b0406c68ffa69b23ea4e788c854b9a40662367c17fd8e35"),
    ("recursive-unsolvable", "explore", True, False):
        (4, "d6d73f3943c2abb0f8c265a25fce165b3f1d121d8eb6b2c9f4a49bbb1e047a49"),
    ("recursive-unsolvable", "run", False, False):
        (0, "33bc95f6c5ac4ee4d92e5e8f3a4c5ab568f952bf91112e0b4b46d63b0d7c940f"),
    ("recursive-unsolvable", "run", True, False):
        (0, "fa8e8b7abc0997d158a5fad0feda81a28c45f9284235f82f4f8bf90d441e8d5e"),
    ("recursive-unsolvable", "run-replay", False, False):
        (1, "df3164b9e6a2ea4a1f6895252d745e6853158690fb0698b165176d7fd0808f5e"),
    ("recursive-unsolvable", "run-replay", True, False):
        (1, "df3164b9e6a2ea4a1f6895252d745e6853158690fb0698b165176d7fd0808f5e"),
    ("recursive-unsolvable", "sr", False, False):
        (5, "a6637f84b364aed73f865abaa128d1dc91bef895a4729c49ba27eb1865e1c9df"),
    ("recursive-unsolvable", "sr", True, False):
        (5, "08f2335558e1bc7b86fca4f77aac02d628b3bb2609602f1d8526512a02c63459"),
    ("recursive-unsolvable", "sr-replay", False, False):
        (4, "98d6f46433501d56424a104d2170f0133789b09a8ad1501569359ee43abe7215"),
    ("recursive-unsolvable", "sr-replay", True, False):
        (4, "98d6f46433501d56424a104d2170f0133789b09a8ad1501569359ee43abe7215"),
}


@pytest.mark.parametrize("name, kind, quiet, color", sorted(PINNED))
def test_text_report_is_pinned(monkeypatch, name, kind, quiet, color):
    assert _output(monkeypatch, name, kind, quiet, color) == PINNED[name, kind, quiet, color]


def test_every_example_is_pinned():
    names = {p.stem for p in EXAMPLES.glob("*.gract")}
    assert {name for name, *_ in PINNED} == names
