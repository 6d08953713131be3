"""The public surface: the names ``blc`` exports, the options of every
``blc`` subcommand and the parameters of every public function the
package exports.  Adding or dropping a name or a knob is a visible edit
to one of the tables below."""

import argparse
import inspect
import types

import blc
from blc import asymptotics, cli, counting, enumeration, terms, typecheck

# ``blc`` republishes each module's ``__all__`` and nothing else.
EXPORTS = {
    terms: (
        "Index", "Abs", "App", "Term", "DecodeError", "Truncated", "TrailingBits",
        "ParseError", "FreeIndexExceeded", "size", "encode", "decode", "max_free_index",
        "render", "parse_text",
    ),
    counting: ("CountTable", "count", "count_row", "verify_functional_equation"),
    enumeration: (
        "NoTerms", "OutOfRange", "AttemptsExhausted", "unrank", "rank", "Sampler", "sample",
        "sample_typable",
    ),
    typecheck: (
        "TVar", "Arrow", "SimpleType", "Typing", "is_typable", "infer", "format_type",
        "count_typable",
    ),
    asymptotics: (
        "SINGULARITY_POLY", "DISCRIMINANT_LIMIT", "bound_discriminant", "real_roots", "sigma",
        "AsymptoticReport", "constants", "ConvergencePoint", "convergence_series",
    ),
}

# ``from blc import *`` binds the exports and the five submodules.
STAR = [
    "Abs", "App", "Arrow", "AsymptoticReport", "AttemptsExhausted", "ConvergencePoint",
    "CountTable", "DISCRIMINANT_LIMIT", "DecodeError", "FreeIndexExceeded", "Index", "NoTerms",
    "OutOfRange", "ParseError", "SINGULARITY_POLY", "Sampler", "SimpleType", "TVar", "Term",
    "TrailingBits", "Truncated", "Typing", "asymptotics", "bound_discriminant", "constants",
    "convergence_series", "count", "count_row", "count_typable", "counting", "decode",
    "encode", "enumeration", "format_type", "infer", "is_typable", "max_free_index",
    "parse_text", "rank", "real_roots", "render", "sample", "sample_typable", "sigma", "size",
    "terms", "typecheck", "unrank", "verify_functional_equation",
]

CLI_OPTIONS = {
    "": ("-h", "--help", "--version"),
    "count": ("-h", "--help", "--size", "--free", "--all", "--max-n", "--format"),
    "table": ("-h", "--help", "--max-n", "--m"),
    "unrank": (
        "-h", "--help", "--size", "--free", "--all", "--index", "--term-format", "--max-n",
        "--format",
    ),
    "rank": ("-h", "--help", "--term", "--text", "--free", "--all", "--max-n", "--format"),
    "sample": (
        "-h", "--help", "--size", "--free", "--all", "--count", "--seed", "--typable",
        "--max-attempts", "--term-format", "--max-n", "--format",
    ),
    "typecheck": ("-h", "--help", "--term", "--text", "--format"),
    "count-typable": ("-h", "--help", "--size", "--closed", "--all", "--max-n", "--format"),
    "asymptotics": ("-h", "--help"),
    "convergence": ("-h", "--help", "--max-n", "--m"),
}

PARAMETERS = {
    "bound_discriminant": ("m",),
    "constants": (),
    "convergence_series": ("m_values", "max_n", "table"),
    "count": ("m", "n", "table"),
    "count_row": ("m", "max_n", "table"),
    "count_typable": ("n", "closed", "jobs", "table"),
    "decode": ("bits",),
    "encode": ("term",),
    "format_type": ("ty",),
    "infer": ("term", "free_count"),
    "is_typable": ("term", "free_count"),
    "max_free_index": ("term",),
    "parse_text": ("text",),
    "rank": ("m", "term", "table"),
    "real_roots": ("p", "lo", "hi"),
    "render": ("term",),
    "sample": ("m", "n", "state", "table"),
    "sample_typable": ("m", "n", "state", "max_attempts", "table"),
    "sigma": ("m",),
    "size": ("term",),
    "unrank": ("m", "n", "k", "table"),
    "verify_functional_equation": ("max_n", "table"),
}


def test_exported_names_are_each_modules_all():
    got = {
        name
        for name in dir(blc)
        if not name.startswith("_") and not isinstance(getattr(blc, name), types.ModuleType)
    }
    assert got == {name for names in EXPORTS.values() for name in names}
    for module, names in EXPORTS.items():
        assert sorted(module.__all__) == sorted(names)
        for name in names:
            assert getattr(blc, name) is getattr(module, name)


def _options(parser):
    return tuple(s for action in parser._actions for s in action.option_strings)


def test_cli_options_are_pinned():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {"": _options(parser), **{name: _options(sp) for name, sp in sub.choices.items()}}
    assert got == CLI_OPTIONS


def test_public_function_parameters_are_pinned():
    got = {
        name: tuple(inspect.signature(obj).parameters)
        for name in dir(blc)
        if not name.startswith("_") and inspect.isfunction(obj := getattr(blc, name))
    }
    assert got == PARAMETERS


def test_star_import_binds_the_exports_and_the_submodules():
    namespace = {}
    exec("from blc import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == STAR
