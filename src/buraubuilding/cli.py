"""Command-line front end: one subcommand per reproducible claim.

Subcommands: stab-identity, stab, link, explore, verify, witness, tube,
presentation-export.  Each run prints one ClaimResult (text or JSON) and
exits 0 iff every executed claim passed.  JSON output uses sorted keys and
default float formatting, so parse-then-reserialize is byte identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from functools import lru_cache
from typing import NamedTuple

from . import __version__
from .arith import check_prime
from .rep import (MatrixRF, letter_matrix, order_mod_homothety, parse_word,
                  word_evaluate)
from .building import (VertexClass, canonicalize, identity_vertex, link,
                       link_dot, link_edges)
from .groupcalc import (DEFAULT_DIGIT_BOUND, DEFAULT_ORBIT_BUDGET,
                        DEFAULT_RADIUS, DEFAULT_WORD_DEPTH, RELATION_FAMILIES,
                        WORD_GENS, kernel_witness_check, orbit_classify,
                        stab_exact, stab_identity_exact, stab_words,
                        tube_pattern_check, verify_relations)

CACHE_ENV = "BURAUBUILDING_CACHE_DIR"
# part of every cache key: bump it whenever a change alters cached results,
# so that entries computed by an older algorithm are never served
ALGORITHM_VERSION = "2"

IDENTITY_IMAGE_ORDERS = {2: 4, 3: 4, 5: 4, 7: 8, 11: 12}


class RunConfig(NamedTuple):
    prime: int
    radius: int
    word_depth: int
    digit_bound: int
    budget_nodes: int
    cache_dir: str
    output_format: str      # text | json | dot


class ClaimResult(NamedTuple):
    claim_id: str
    status: str             # pass | fail | partial
    data: object
    elapsed: float

    def to_json_dict(self):
        return {
            "claimId": self.claim_id,
            "data": self.data,
            "elapsed": self.elapsed,
            "status": self.status,
        }


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# configuration

def _read_config_file(path):
    out = {}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError("config line without '=': %r" % line)
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out

# config key -> (the flag that sets it, its default); the default's type is
# the key's type
_CONFIG_KEYS = {
    "prime": ("p", 3), "radius": ("radius", DEFAULT_RADIUS),
    "wordDepth": ("depth", DEFAULT_WORD_DEPTH),
    "digitBound": ("digit_bound", DEFAULT_DIGIT_BOUND),
    "budgetNodes": ("budget", DEFAULT_ORBIT_BUDGET),
    "cacheDir": ("cache_dir", ""), "outputFormat": (None, "text"),
}


def build_config(args) -> RunConfig:
    """Flags win over the optional key=value config file, which wins over defaults."""
    base = {k: default for k, (_, default) in _CONFIG_KEYS.items()}
    if getattr(args, "config", None):
        for k, v in _read_config_file(args.config).items():
            if k not in _CONFIG_KEYS:
                raise ValueError("unknown config key %r" % k)
            flag = _CONFIG_KEYS[k][0]
            if flag and not hasattr(args, flag):
                # the subcommand has no such flag, so it reads no such key
                raise ValueError("config key %r is not read by %s"
                                 % (k, args.command))
            base[k] = type(base[k])(v)
    for k, (flag, _) in _CONFIG_KEYS.items():
        if flag and getattr(args, flag, None) is not None:
            base[k] = getattr(args, flag)
    flags = [f for f in ("json", "dot") if getattr(args, f, False)]
    if len(flags) > 1:
        raise ValueError("--dot and --json exclude each other")
    if flags:
        base["outputFormat"] = flags[0]
    formats = ("text", "json") + (("dot",) if args.command == "link" else ())
    if base["outputFormat"] not in formats:
        raise ValueError("outputFormat %r is not one of %s for %s" % (
            base["outputFormat"], ", ".join(formats), args.command))
    cache = base["cacheDir"] or os.environ.get(CACHE_ENV) \
        or os.path.join(os.path.expanduser("~"), ".cache", "buraubuilding")
    for k in ("radius", "wordDepth", "digitBound", "budgetNodes"):
        if base[k] < 1:
            raise ValueError("%s must be positive" % k)
    return RunConfig(prime=base["prime"], radius=base["radius"],
                     word_depth=base["wordDepth"], digit_bound=base["digitBound"],
                     budget_nodes=base["budgetNodes"], cache_dir=cache,
                     output_format=base["outputFormat"])


# ---------------------------------------------------------------------------
# the orbit cache

def _cache_path(config, key_parts):
    digest = hashlib.sha256("|".join(key_parts).encode()).hexdigest()[:24]
    return os.path.join(config.cache_dir, digest + ".json")


def cache_get(config, key_parts):
    """The cached payload, or None on a miss; an unreadable entry is a miss."""
    try:
        with open(_cache_path(config, key_parts), "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def cache_put(config, key_parts, payload):
    """Write the entry atomically: a temp file in the cache dir, then rename."""
    os.makedirs(config.cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=config.cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(dumps(payload))
        os.replace(tmp, _cache_path(config, key_parts))
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# vertex spec grammar: a word over named generators applied to I, or a
# literal matrix [[...],[...],[...]] with entries in the c*t^k grammar

def parse_vertex_spec(text: str, p: int) -> VertexClass:
    text = text.strip()
    if text == "I":
        return identity_vertex(p)
    if text.startswith("["):
        return canonicalize(MatrixRF.from_strings(_matrix_literal(text), p))
    return canonicalize(word_evaluate(parse_word(text), p))


def _matrix_literal(text):
    """The 3x3 entry strings of a literal [[a,b,c],[d,e,f],[g,h,i]]; every
    space is dropped first, so "[[1, 0, 0], [2, t^-2, 0], ...]" reads too."""
    body = "".join(text.split())
    if not (body.startswith("[[") and body.endswith("]]")):
        raise ValueError("matrix literal must look like [[a,b,c],[d,e,f],[g,h,i]]")
    rows = body[2:-2].split("],[")
    out = [r.split(",") for r in rows]
    if len(out) != 3 or any(len(r) != 3 for r in out):
        raise ValueError("matrix literal must be 3x3")
    return out


# ---------------------------------------------------------------------------
# claim commands: each takes the config and the parsed arguments and returns
# (claim id, status, data); ``main`` times it and builds the ClaimResult

def cmd_stab_identity(config: RunConfig, args):
    p = check_prime(config.prime)
    rpt = stab_identity_exact(p)
    expected = IDENTITY_IMAGE_ORDERS.get(p)
    status = "partial" if expected is None else \
        ("pass" if rpt.image_order == expected else "fail")
    data = rpt.to_json_dict()
    data["expectedImageOrder"] = expected
    return "stab-identity-p%d" % p, status, data


# the flags that each stab --method does not read
_STAB_UNREAD = {"exact": ("depth", "gens"), "words": ("digit-bound", "budget")}


def cmd_stab(config: RunConfig, args):
    unread = [f for f in _STAB_UNREAD[args.method]
              if getattr(args, f.replace("-", "_")) is not None]
    if unread:
        raise ValueError("--method %s does not read --%s"
                         % (args.method, " and --".join(unread)))
    p = check_prime(config.prime)
    v = parse_vertex_spec(args.vertex, p)
    if args.method == "exact":
        rpt = stab_exact(v, digit_bound=config.digit_bound,
                         column_budget=config.budget_nodes * 20)
    else:
        gens = WORD_GENS if args.gens is None else \
            tuple(g for g in args.gens.split(",") if g)
        rpt = stab_words(v, gens, config.word_depth)
    status = "pass" if rpt.complete else "partial"
    return "stab-%s-p%d" % (args.method, p), status, rpt.to_json_dict()


def cmd_link(config: RunConfig, args):
    p = check_prime(config.prime)
    v = parse_vertex_spec(args.vertex, p)
    lk = link(v)
    expected = 2 * (p * p + p + 1)
    dot = config.output_format == "dot"
    edges = link_edges(lk) if p == 3 or dot else ()
    degrees = [sum(i in e for e in edges) for i in range(len(lk))] \
        if p == 3 else []
    ok = len(lk) == expected and len(set(lv.vclass for lv in lk)) == expected \
        and (p != 3 or all(d == 4 for d in degrees))
    data = {
        "count": len(lk),
        "expectedCount": expected,
        "vertex": v.to_text(),
        "withinLinkDegrees": sorted(set(degrees)) if degrees else None,
    }
    if dot:
        sys.stdout.write(link_dot(lk, edges))
    return "link-count-p%d" % p, "pass" if ok else "fail", data


def cmd_explore(config: RunConfig, args):
    p = check_prime(config.prime)
    # u and the distinguished vertices exist at p = 3 only
    gens = ("x,y,u" if p == 3 else "x,y") if args.gens is None else args.gens
    gens = [g for g in gens.split(",") if g]
    if not gens:
        raise ValueError("--gens names no generator")
    for g in gens:
        letter_matrix(g, p)     # a letter with no matrix at p exits 2 here
    key = ["explore", __version__, ALGORITHM_VERSION, str(p), ".".join(gens),
           str(config.radius), str(config.budget_nodes)]
    cached = cache_get(config, key)
    if cached is not None:
        data = cached
    else:
        table = orbit_classify(p, gens=tuple(gens), radius=config.radius,
                               budget=config.budget_nodes,
                               stab_reports=(p == 3))
        data = table.to_json_dict()
        cache_put(config, key, data)
    status = "pass"
    if p == 3 and set(gens) == {"x", "y", "u"}:
        # the paper's count, stated for <x, y, u>: the radius-1 ball is [I]
        # plus its link, and 18 of the 26 link vertices are group points
        groups = [o["sizeWithinRadius"] for o in data["orbits"]
                  if o["label"] == "group-point"]
        n = groups[0] if groups else 0
        if n < 19 or (config.radius == 1 and n != 19):
            status = "fail"
        if config.radius == 1 and groups:
            data["groupPointsInLink"] = n - 1
    if not data["complete"]:
        status = "partial"
    return "explore-p%d-r%d" % (p, config.radius), status, data


def cmd_verify(config: RunConfig, args):
    reports = verify_relations()
    ok = all(r.holds_mod_p for r in reports) and \
        all(r.holds_integrally for r in reports if r.holds_integrally is not None)
    data = {"relations": [r.to_json_dict() for r in reports]}
    return "relations-p3", "pass" if ok else "fail", data


def cmd_witness(config: RunConfig, args):
    rpt = kernel_witness_check()
    data = {"letters": len(rpt.relator)}
    ok = True
    if not args.integral_only:
        data["homothetyMod3"] = rpt.holds_mod_p
        ok = ok and rpt.holds_mod_p
    if not args.mod_only:
        mi = rpt.integral
        data["homothetyIntegral"] = rpt.holds_integrally
        data["integralEntryDegrees"] = [
            [mi[i, j].maxexp if not mi[i, j].is_zero() else None
             for j in range(3)] for i in range(3)]
        ok = ok and not rpt.holds_integrally
    return "kernel-witness", "pass" if ok else "fail", data


def cmd_tube(config: RunConfig, args):
    levels = tube_pattern_check(kmax=args.kmax, depth=config.word_depth)
    ok = all(lv.image_order == (18 if lv.k == 1 else 54) for lv in levels)
    data = {"levels": [lv.to_json_dict() for lv in levels]}
    return "tube-k%d" % args.kmax, "pass" if ok else "fail", data


def cmd_presentation_export(config: RunConfig, args):
    gens = {}
    for name in ("x", "y", "u", "h"):
        m = letter_matrix(name, 3)
        gens[name] = {
            "matrix": [[str(m[i, j]) for j in range(3)]
                       for i in range(3)],
            "orderModHomothety": order_mod_homothety(m),
        }
    data = {
        "generators": gens,
        "relators": [{"name": name, "word": text}
                     for name, text, _ in RELATION_FAMILIES],
    }
    return "presentation-export", "pass", data


_COMMANDS = {
    "stab-identity": cmd_stab_identity, "stab": cmd_stab, "link": cmd_link,
    "explore": cmd_explore, "verify": cmd_verify, "witness": cmd_witness,
    "tube": cmd_tube, "presentation-export": cmd_presentation_export,
}


# ---------------------------------------------------------------------------
# rendering

def _render_text(result: ClaimResult):
    lines = ["claim %s: %s (%.2fs)" % (result.claim_id, result.status,
                                       result.elapsed)]
    def emit(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                emit(prefix + "  " + str(k) + ":", obj[k])
        elif isinstance(obj, list) and obj and isinstance(obj[0], (dict, list)):
            for i, e in enumerate(obj):
                emit(prefix + " [%d]" % i, e)
        else:
            lines.append("%s %s" % (prefix, obj))
    emit(" ", result.data)
    return "\n".join(lines) + "\n"


def emit_result(config: RunConfig, result: ClaimResult):
    """The report as JSON or text; with the dot format the command has
    written its graph, which is then all of stdout."""
    if config.output_format == "json":
        sys.stdout.write(dumps(result.to_json_dict()))
    elif config.output_format == "text":
        sys.stdout.write(_render_text(result))


# ---------------------------------------------------------------------------
# argument parsing

_FLAGS = {
    "p": {"type": int, "help": "prime modulus"},
    "cache-dir": {},
    "radius": {"type": int},
    "depth": {"type": int, "help": "word-search depth"},
    "digit-bound": {"type": int},
    "budget": {"type": int, "help": "node budget"},
}


def _add_common(sp, *flags):
    """--config and --json, plus the named flags the subcommand reads."""
    sp.add_argument("--config", default=None, help="key=value config file")
    for name in flags:
        sp.add_argument("--" + name, **_FLAGS[name])
    sp.add_argument("--json", action="store_true", help="JSON output")


@lru_cache(maxsize=None)
def make_parser():
    """The argparse tree, built once per process: parse_args keeps no
    state on it, so every ``main`` call shares one."""
    ap = argparse.ArgumentParser(
        prog="buraubuilding",
        description="Exact workbench for the mod-p Burau action on the "
                    "building of GL3(F_p(t))")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("stab-identity", help="exact stabilizer of the identity vertex")
    _add_common(sp, "p")

    sp = sub.add_parser("stab", help="stabilizer of a vertex")
    _add_common(sp, "p", "depth", "digit-bound", "budget")
    sp.add_argument("--vertex", required=True,
                    help="word over named generators, I, or a 3x3 matrix literal")
    sp.add_argument("--method", choices=("exact", "words"), default="exact")
    sp.add_argument("--gens", default=None,
                    help="comma-separated generators for word search "
                         "(default %s)" % ",".join(WORD_GENS))

    sp = sub.add_parser("link", help="link of a vertex")
    _add_common(sp, "p")
    sp.add_argument("--vertex", default="I")
    sp.add_argument("--dot", action="store_true", help="DOT output of the link graph")

    sp = sub.add_parser("explore", help="orbit classification of a ball around I")
    _add_common(sp, "p", "cache-dir", "radius", "budget")
    sp.add_argument("--gens", default=None,
                    help="comma-separated generators (default x,y,u at "
                         "p = 3, x,y elsewhere)")

    sp = sub.add_parser("verify", help="relation families mod 3")
    _add_common(sp)

    sp = sub.add_parser("witness", help="kernel witness word")
    _add_common(sp)
    only = sp.add_mutually_exclusive_group()
    only.add_argument("--mod-only", action="store_true")
    only.add_argument("--integral-only", action="store_true")

    sp = sub.add_parser("tube", help="stabilizer image pattern along the tube")
    _add_common(sp, "depth")
    sp.add_argument("--kmax", type=int, default=2)

    sp = sub.add_parser("presentation-export", help="export generators and relators")
    _add_common(sp)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        config = build_config(args)
        t0 = time.time()
        claim_id, status, data = _COMMANDS[args.command](config, args)
        result = ClaimResult(claim_id, status, data, time.time() - t0)
    except (ValueError, KeyError) as exc:
        # str() of a KeyError is the repr of its message: print the message
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        sys.stderr.write("error: %s\n" % (msg,))
        return 2
    except Exception as exc:
        # a failed internal check or a bug: report it, never a traceback
        sys.stderr.write("error: %s: %s\n" % (type(exc).__name__, exc))
        return 2
    emit_result(config, result)
    return 0 if result.status == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
