"""Every CLI output, pinned byte for byte.

Each entry is an argv list run in-process through ``cli.main``, with
the sha256 of its stdout, the sha256 of its stderr and its exit code.
It covers every subcommand, plain and ``--format json`` where the
subcommand has it, at bound 0 and unbounded, and one usage error for
each of the exit codes 2, 3 and 4.  A separate ``HELP`` table pins the
``--help`` text of the top level and of every subcommand, with its sha256.

After an intended output change, print each entry's current exit code
and digests with

    PYTHONPATH=src python tests/test_cli_manifest.py

and update the entries that changed.
"""

import hashlib

import pytest

from blc.cli import main

UNRANKED_CLOSED = r"\\(\1 \(\((\1 1) (((3 2) (1 ((1 1) 4))) 1)) 1))"
UNRANKED_OPEN = r"\((\(1 2) 1) (1 ((\1 ((\2 \\\\1) (2 3))) 2)))"
S = r"\\\((3 1) (2 1))"
JSON = ("--format", "json")
EMPTY = hashlib.sha256(b"").hexdigest()

# (argv, exit code, sha256 of stdout, sha256 of stderr)
MANIFEST = [
    (
        ["count", "--size", "60", "--free", "0"],
        0,
        "5da3316e6037e147d0a705040c0deeffd4f20e0e57145854cee5af50ea4c57db",
        EMPTY,
    ),
    (
        ["count", "--size", "60", "--free", "0", *JSON],
        0,
        "43aba4f480fbcc4e0073d4515f737f7c582627d1f571dfe6d88d48ce62b41cdd",
        EMPTY,
    ),
    (
        ["count", "--size", "60", "--all"],
        0,
        "9aa776a66d208368aa5413725cb04757ba8e7bc4791b78d14e12370ac46d996f",
        EMPTY,
    ),
    (
        ["count", "--size", "60", "--all", *JSON],
        0,
        "029feda3a1c8d53bb49730b72a788afc02b811112e0557d1e38af90fceb59171",
        EMPTY,
    ),
    (
        ["count", "--size", "60", "--free", "3"],
        0,
        "91a5cbc589e930540a2f5f5c477adf7e58da84745a09a7b38fc86d36e30775f2",
        EMPTY,
    ),
    (
        ["table", "--max-n", "40", "--m", "0,1,inf"],
        0,
        "7f05317f4ef16f9d4960bfd0bb3640866c9eb7659b20b12ecfdf852580a2c06c",
        EMPTY,
    ),
    (
        ["table", "--max-n", "30"],
        0,
        "289ecf66c77cc1d31e1e07730d67dafabee089f84e96bef9ad883a60411a1caa",
        EMPTY,
    ),
    (
        ["unrank", "--size", "60", "--free", "0", "--index", "12345678901234"],
        0,
        "d7c5def739f5ed9f42fb3dc5610791ac01fbc42d57085072f5e62b0de8d6bcf7",
        EMPTY,
    ),
    (
        ["unrank", "--size", "60", "--free", "0", "--index", "12345678901234", "--term-format", "text", *JSON],
        0,
        "791eb7c35cc9c81e2d43868f71af6b61664a541103affd7892d17a9f41192db6",
        EMPTY,
    ),
    (
        ["unrank", "--size", "60", "--all", "--index", "123456789012345", "--term-format", "text"],
        0,
        "1a47796f90a0950c5414d607dc407d769b205dc45711ad9a96483dd9ec253aed",
        EMPTY,
    ),
    (
        ["unrank", "--size", "60", "--all", "--index", "123456789012345", *JSON],
        0,
        "78909147492dba290282f0eca7a16900a24c43f7618aae1319f489054bc89f66",
        EMPTY,
    ),
    (
        ["unrank", "--size", "60", "--free", "2", "--index", "123456789012345"],
        0,
        "1db102a084926f47ad6382127911daf0ba2ceb8e20e082fc4a4a3899f3144e21",
        EMPTY,
    ),
    (
        ["rank", "--text", UNRANKED_CLOSED, "--free", "0"],
        0,
        "b3580fed05a1fb9a32115dd64b0c64c5100a4aaf62137995d25b38668fc4a7cd",
        EMPTY,
    ),
    (
        ["rank", "--text", UNRANKED_CLOSED, "--free", "0", *JSON],
        0,
        "0a6402d6533024cb8288a40301c82dadf761ebc218dd741b2ad4ecab0b1c2b74",
        EMPTY,
    ),
    (
        ["rank", "--text", UNRANKED_OPEN, "--all"],
        0,
        "d0beab232adff5ba365880366ad30b1edb85c4c5372442b5d2fe27adc96d653f",
        EMPTY,
    ),
    (
        ["rank", "--text", UNRANKED_OPEN, "--all", *JSON],
        0,
        "b75aec6cef61bf0760904033340e8569292355d407103271b9db1c524eea96a0",
        EMPTY,
    ),
    (
        ["rank", "--term", "000101011000010110000100111110110011101001010100110101101010", "--free", "2"],
        0,
        "d0beab232adff5ba365880366ad30b1edb85c4c5372442b5d2fe27adc96d653f",
        EMPTY,
    ),
    (
        ["sample", "--size", "80", "--free", "0", "--seed", "5", "--count", "3"],
        0,
        "c04ec55301e10ff46ee8e8399872ce9a981547a746ef665ce24fbdd64a3f04e5",
        "b3fa51e2594736090716a58e7119604acba5418d4aa95e9320dcebc90b32d9d3",
    ),
    (
        ["sample", "--size", "80", "--free", "0", "--seed", "5", "--count", "3", *JSON],
        0,
        "1a50a4473171985dace0464f0836f2ee74923f9de4dd2252bc16192bfcc2f34d",
        EMPTY,
    ),
    (
        ["sample", "--size", "80", "--all", "--seed", "5", "--count", "3", "--term-format", "text"],
        0,
        "a27b5dc5be997b610849763100238cb8c7ba7555e8a38c882c206b7f88c36383",
        "b3fa51e2594736090716a58e7119604acba5418d4aa95e9320dcebc90b32d9d3",
    ),
    (
        ["sample", "--size", "80", "--all", "--seed", "5", "--count", "3", *JSON],
        0,
        "06591259343e69159973075982c707b15f0e7fdb190fd37457b71885d5fb937d",
        EMPTY,
    ),
    (
        ["sample", "--size", "40", "--free", "0", "--typable", "--seed", "3", "--count", "2"],
        0,
        "9576e42c7c51e485a0d14eb4537554867c87844e651af5b6d95452bd2f57871b",
        "7bf4f4010906ce364e0781fc0ba509c2f7e4ba1aecd6294c077d21a4d4ab9e69",
    ),
    (
        ["sample", "--size", "40", "--free", "0", "--typable", "--seed", "3", "--count", "2", *JSON],
        0,
        "d867a85903f37a9476a7134681dd18d255f8eb3dd7d62c63d4c98600562bb1b8",
        EMPTY,
    ),
    (
        ["sample", "--size", "40", "--all", "--typable", "--seed", "3", "--count", "2", "--term-format", "text"],
        0,
        "b7da585d85338fe1261f8f7bdb08f07efe7c67ac4a65600f0585406b9b85993b",
        "7bf4f4010906ce364e0781fc0ba509c2f7e4ba1aecd6294c077d21a4d4ab9e69",
    ),
    (
        ["sample", "--size", "40", "--all", "--typable", "--seed", "3", "--count", "2", *JSON],
        0,
        "6cd8f8277e5cc61900115c00060e5a29bb60605d61733614ba701ca11c766a3a",
        EMPTY,
    ),
    (
        ["typecheck", "--text", S],
        0,
        "9105f05c6c1f10cf7318be2f1e6011387063705d4f21dbe5ad0bb83bb4fcfdf0",
        EMPTY,
    ),
    (
        ["typecheck", "--text", S, *JSON],
        0,
        "337e378c83a82351da59423befeb50d54f6db76be13627f6527c3dff5981a97c",
        EMPTY,
    ),
    (
        ["typecheck", "--text", "\\(1 1)"],
        0,
        "295fae703a8238b87859a378c274350eb9667d7f6fe3a88d5db57a1ac69b6c84",
        EMPTY,
    ),
    (
        ["typecheck", "--term", "00011010", *JSON],
        0,
        "adb00a783628e209edb5eb0f28155bc1ae3def31e4cf744977a5fef04f3a611a",
        EMPTY,
    ),
    (
        ["count-typable", "--size", "16", "--closed"],
        0,
        "7f3d905fd916ac40ded4007bbe76e90633bb99a856b7bf512eaf5ae1e91f6ca7",
        EMPTY,
    ),
    (
        ["count-typable", "--size", "16", "--closed", *JSON],
        0,
        "3a309a4248496337a42aced88d7fe3e47ff0099ae3715f3a036bb2acf421ef54",
        EMPTY,
    ),
    (
        ["count-typable", "--size", "16", "--all"],
        0,
        "beb576f786b7fa4f8b67952d7b924d728aa1907a0eb7ee26aa5dfe56c13b0c98",
        EMPTY,
    ),
    (
        ["count-typable", "--size", "16", "--all", *JSON],
        0,
        "4aa1ac64f4fca68352f794df86e12398d9b1d7736bec327ecc958003727fb016",
        EMPTY,
    ),
    (
        ["asymptotics"],
        0,
        "49f1d962fb878e8ba5739c57373769a99f1991ac3a98c15d78cc1bfdd3e49e0f",
        EMPTY,
    ),
    (
        ["convergence", "--max-n", "80", "--m", "0,inf"],
        0,
        "680ddc2639107ceb34142ca93f71ff1b24c618cf0a481e595e7debe70afd5088",
        EMPTY,
    ),
    (
        ["count", "--size", "10", "--free", "-1"],
        2,
        EMPTY,
        "bf2252ba8d491e3a0e5137f83985d5978cd2960c086b90f3fd5c1d368cdb8c9e",
    ),
    (
        ["count", "--size", "10"],
        2,
        EMPTY,
        "ff226a5b857a55e1387e01be52962015dd9ab59f1248c96262316700e70aa050",
    ),
    (
        ["sample", "--size", "30", "--free", "0", "--seed", "-7"],
        2,
        EMPTY,
        "251176c700fee56ab395ecb1d644399ed9d4ad49742eab9cb7a61128262e0a9e",
    ),
    (
        ["unrank", "--size", "60", "--free", "0", "--index", "38754322685330"],
        3,
        EMPTY,
        "1e67960bd5e302b14b97f21d501ee4203b3466241938c7a0cadb6ec240c53f45",
    ),
    (
        ["sample", "--size", "5", "--free", "0"],
        3,
        EMPTY,
        "6252c48efbf7c1d6b2fa76d90fe0dc302e52d3ba8f9b11a79df08f758169fce0",
    ),
    (
        ["rank", "--text", "(1 2)", "--free", "1"],
        3,
        EMPTY,
        "bf32ab90e6d97657f775e4e459824cbb26a8d7d6b80df5884852f1536bcc5109",
    ),
    (
        ["sample", "--size", "200", "--all", "--typable", "--max-attempts", "2", "--seed", "1"],
        4,
        EMPTY,
        "b3e25ff00975baa40c3f3cdebbfff11d60adb119dd2866777a011c7e6f3176a5",
    ),
]


# (argv, sha256 of stdout); each exits 0 with nothing on stderr
HELP = [
    (["--help"], "21ddc27c69edda1350571d582056584e9da79b716f7a13ff0acdad8232f791b8"),
    (["count", "--help"], "308b2248b04be5913714814433e4028097172aa09cbe2a4792726aa507f0696a"),
    (["table", "--help"], "b66fe594e7333d98aac6db2537995f4b2a92261ff9a36e1f48cd5b1f39f08b79"),
    (["unrank", "--help"], "fc182649d88509ce14f2afc667fe5633651b18d71a9a09f21b8ef48e37490fbd"),
    (["rank", "--help"], "697be5f32016fae8b2fa1facdb3f008c2b03489819fc46e8d2f2158c743fce09"),
    (["sample", "--help"], "d11366c7f39a35624d2821be0fed41c9fbc387d1d09a10157c19491e6b59b5bb"),
    (["typecheck", "--help"], "140d0863e926935d21bb9839d7d74eba2ef2fd1872b1f5c18a5baf8d23bdd468"),
    (["count-typable", "--help"], "7800c71b34b2ee24e125cb4c40a5daa679277103c1ba4447c46fed21f9ab51b7"),
    (["asymptotics", "--help"], "73b5dbd8725fbbf0aabbc24f44d9808a35c522416b9e3f80e5d60c375ea4b24f"),
    (["convergence", "--help"], "855c94bc2e74e20db18fdf471abd006e17db57da82b9cfc28b2234e6a86b7ab9"),
]


def run(argv: list[str], capsys) -> tuple[int, str, str]:
    code = main(argv)
    out, err = capsys.readouterr()
    return code, hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256(err.encode()).hexdigest()


@pytest.mark.parametrize(
    "argv, code, out_sha, err_sha", MANIFEST, ids=[" ".join(e[0]) for e in MANIFEST]
)
def test_cli_output_is_unchanged(argv, code, out_sha, err_sha, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to the terminal width
    assert run(argv, capsys) == (code, out_sha, err_sha)


@pytest.mark.parametrize("argv, out_sha", HELP, ids=[" ".join(e[0]) for e in HELP])
def test_help_is_unchanged(argv, out_sha, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(argv, capsys) == (0, out_sha, EMPTY)


def test_help_covers_every_subcommand():
    commands = {argv[0] for argv, *_ in MANIFEST}
    assert {argv[0] for argv, _ in HELP} == commands | {"--help"}


def test_manifest_covers_every_subcommand_and_error_code():
    commands = {argv[0] for argv, *_ in MANIFEST}
    assert commands == {
        "count",
        "table",
        "unrank",
        "rank",
        "sample",
        "typecheck",
        "count-typable",
        "asymptotics",
        "convergence",
    }
    assert {code for _, code, *_ in MANIFEST} == {0, 2, 3, 4}


if __name__ == "__main__":
    import contextlib
    import io
    import os

    os.environ["COLUMNS"] = "80"
    for argv, *_ in MANIFEST + HELP:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        digests = [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]
        print(argv, code, *digests)
