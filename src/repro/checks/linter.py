"""``reprolint`` — the AST side of the correctness tooling.

Pure stdlib (``ast`` + ``tokenize``): the linter imports neither numpy
nor the rest of :mod:`repro`, so it runs in any environment, including
CI images that have no scientific stack installed.

Rule scoping is path-based (mirroring where each contract applies):

* DET001 everywhere;
* DET002 everywhere except ``telemetry/`` and ``workflow/`` (the two
  layers allowed to read wall clocks), but re-armed for any ``fleet``
  path — fleet scheduling decisions must be replayable even though the
  fleet layer sits next to the wall-clock-exempt workflow code;
* DTY001 in the single-precision hot paths ``letkf/`` and ``eigen/``;
* MUT001 in kernel modules: ``model/`` and ``letkf/core.py``;
* ROL001 where the model's periodic stencils live: ``model/`` and
  ``grid.py``;
* LAY001 in ``letkf_transform``-adjacent code: ``letkf/`` and
  ``comm/parallel_letkf.py``;
* ASY001/ASY002 in the event-loop subsystems ``fleet/`` and
  ``serving/`` (the only layers that run coroutines);
* SHM001/RES001 everywhere — shared-memory segments and process/
  socket-holding resources leak identically from any layer;
* OWN001 everywhere except ``model/shm.py`` (the ownership layer
  itself): the only sanctioned slab writers are the pool's two block
  functions, which run in the worker that was dealt the block and, in
  crash recovery, in the parent under an audited reclaim.

Suppression: ``# reprolint: ok CODE[,CODE...] <reason>`` on the
offending statement (any of its physical lines) or on the line directly
above it.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import Iterable, Iterator

from .rules import RULES

__all__ = ["Finding", "lint_source", "lint_file", "lint_paths", "iter_python_files"]


# ---------------------------------------------------------------------------
# findings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    #: stripped source line — the baseline's line-number-independent key
    source: str = ""
    suppressed: bool = False

    @property
    def hint(self) -> str:
        return RULES[self.code].hint

    def text(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "hint": self.hint,
            "source": self.source,
        }


# ---------------------------------------------------------------------------
# suppression comments
# ---------------------------------------------------------------------------

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*ok\s+"
    r"(?P<codes>[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)"
)


def _suppressions(source: str) -> dict[int, set[str]]:
    """Map physical line -> rule codes suppressed on that line."""
    out: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _SUPPRESS_RE.search(tok.string)
            if m:
                codes = {c.strip() for c in m.group("codes").split(",")}
                out.setdefault(tok.start[0], set()).update(codes)
    except tokenize.TokenError:
        pass
    return out


# ---------------------------------------------------------------------------
# path-based rule scoping
# ---------------------------------------------------------------------------


def _scopes(path: str) -> set[str]:
    parts = PurePosixPath(str(path).replace("\\", "/")).parts
    name = parts[-1] if parts else ""
    scopes = {"det001", "det002"}
    if "telemetry" in parts or "workflow" in parts:
        scopes.discard("det002")
    if "fleet" in parts:
        # the fleet scheduler rides on the wall-clock-exempt workflow
        # layer but its own decisions must stay replayable: DET002
        # applies to fleet code wherever it lives
        scopes.add("det002")
    if "letkf" in parts or "eigen" in parts:
        scopes.add("dtype")
    if "model" in parts or ("letkf" in parts and name == "core.py"):
        scopes.add("kernel")
    if "model" in parts or name == "grid.py":
        scopes.add("roll")
    if "letkf" in parts or name == "parallel_letkf.py":
        scopes.add("layout")
    if "fleet" in parts or "serving" in parts:
        scopes.add("async")
    scopes.add("shm")
    scopes.add("res")
    if not ("model" in parts and name == "shm.py"):
        # model/shm.py IS the ownership layer; everywhere else, slab
        # writes outside the sanctioned owners are foreign
        scopes.add("own")
    return scopes


# ---------------------------------------------------------------------------
# import-alias resolution
# ---------------------------------------------------------------------------


def _collect_aliases(tree: ast.AST) -> dict[str, str]:
    """Local name -> dotted module/object path, from every import stmt."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    aliases[a.asname] = a.name
                else:
                    root = a.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for a in node.names:
                if a.name == "*":
                    continue
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


def _resolve(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """Resolve a Name/Attribute chain to a dotted path, or None."""
    chain: list[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = aliases.get(node.id)
    if base is None:
        return None
    chain.append(base)
    return ".".join(reversed(chain))


def _base_param(node: ast.AST) -> str | None:
    """The parameter name a Subscript ultimately indexes, if direct."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


# ---------------------------------------------------------------------------
# rule constants
# ---------------------------------------------------------------------------

_NP_LEGACY_RNG = {
    "rand", "randn", "random", "random_sample", "ranf", "sample", "seed",
    "normal", "uniform", "randint", "random_integers", "choice", "shuffle",
    "permutation", "standard_normal", "poisson", "exponential", "gamma",
    "beta", "binomial", "lognormal", "get_state", "set_state",
}
_STDLIB_RNG = {
    "random", "randint", "randrange", "choice", "choices", "sample",
    "shuffle", "uniform", "gauss", "normalvariate", "seed", "betavariate",
    "expovariate", "triangular", "getrandbits", "vonmisesvariate",
    "paretovariate", "weibullvariate",
}
#: constructors whose first/only seed argument must be present and not None
_SEEDED_CTORS = {
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.MT19937",
    "numpy.random.Philox",
    "numpy.random.SFC64",
    "random.Random",
}
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}
_DEFAULT_F64_CTORS = {
    "numpy.zeros": 2,   # dtype is the Nth positional argument
    "numpy.ones": 2,
    "numpy.empty": 2,
    "numpy.full": 3,
}
_MUTATING_METHODS = {
    "fill", "sort", "partition", "resize", "put", "setflags", "itemset",
    "byteswap",
}
_GEMM_FUNCS = {"numpy.matmul", "numpy.dot", "numpy.einsum", "numpy.tensordot"}
_TRANSPOSE_FUNCS = {
    "numpy.swapaxes", "numpy.transpose", "numpy.moveaxis", "numpy.rollaxis",
}
_TRANSPOSE_METHODS = {"transpose", "swapaxes"}
#: methods that keep a floating layout floating (views / ambiguous copies)
_PASSTHROUGH_METHODS = {"reshape", "view"}
_PIN_FUNCS = {
    "numpy.ascontiguousarray", "numpy.asfortranarray", "numpy.copy",
    "numpy.array",
}
#: calls that block the event loop when issued from a coroutine
_ASYNC_BLOCKING = {
    "time.sleep",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "os.system", "os.popen", "os.waitpid",
    "socket.create_connection",
    # unbounded numpy work: a full GEMM/solve stalls the 30 s loop
    "numpy.einsum", "numpy.matmul", "numpy.dot", "numpy.tensordot",
}
_ASYNC_BLOCKING_PREFIXES = ("numpy.linalg.",)
#: sync-file-I/O method names (Path-style) blocking from a coroutine
_ASYNC_BLOCKING_METHODS = {
    "read_text", "write_text", "read_bytes", "write_bytes",
}
#: process/socket/segment-holding constructors RES001 tracks (matched
#: on the terminal identifier so both bare and dotted spellings hit)
_RES_CTORS = {
    "ProcessesBackend", "AsyncTileServer", "ChunkAssembler",
    "SharedArena", "SharedStateSlab",
    "ThreadPoolExecutor", "ProcessPoolExecutor", "Pool",
}
_RES_RELEASE_METHODS = {"close", "aclose", "shutdown", "terminate"}
_SHM_CTOR = "multiprocessing.shared_memory.SharedMemory"
#: the only functions allowed to write into shared slab/arena blocks
_OWN_SANCTIONED = {"_integrate_block", "_transform_block"}


def _terminal_ident(node: ast.AST) -> str | None:
    """Last identifier of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _looks_shared(node: ast.AST) -> bool:
    """Name convention: terminal identifier mentions slab/arena."""
    ident = _terminal_ident(node)
    if ident is None:
        return False
    low = ident.lower()
    return "slab" in low or "arena" in low


def _is_f64_dtype_value(node: ast.AST, aliases: dict[str, str]) -> bool:
    resolved = _resolve(node, aliases)
    if resolved in ("numpy.float64", "numpy.double", "numpy.float_"):
        return True
    if isinstance(node, ast.Name) and node.id == "float" and "float" not in aliases:
        return True
    if isinstance(node, ast.Constant) and node.value in ("float64", "double", "f8"):
        return True
    return False


# ---------------------------------------------------------------------------
# the linter
# ---------------------------------------------------------------------------


class _Linter:
    def __init__(self, path: str, tree: ast.Module, scopes: set[str]):
        self.path = path
        self.scopes = scopes
        self.aliases = _collect_aliases(tree)
        self.findings: list[tuple[Finding, int]] = []

    # -- emit -----------------------------------------------------------

    def flag(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        self.findings.append(
            (
                Finding(
                    path=self.path,
                    line=line,
                    col=getattr(node, "col_offset", 0) + 1,
                    code=code,
                    message=message,
                ),
                getattr(node, "end_lineno", None) or line,
            )
        )

    # -- module-wide, order-independent rules ---------------------------

    def check_module(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                self._check_call(node)
            elif isinstance(node, ast.keyword) and node.arg == "dtype":
                if "dtype" in self.scopes and _is_f64_dtype_value(
                    node.value, self.aliases
                ):
                    self.flag(
                        node.value, "DTY001",
                        "float64 dtype literal in a single-precision hot path",
                    )
        if "async" in self.scopes:
            self._check_unawaited(tree)
        for fn, stack in self._functions(tree):
            if "kernel" in self.scopes:
                self._check_mutation(fn)
            if "layout" in self.scopes:
                self._check_layout(fn)
            if "async" in self.scopes and isinstance(fn, ast.AsyncFunctionDef):
                self._check_async_blocking(fn)
            if "shm" in self.scopes:
                self._check_shm_lifecycle(fn)
            if "res" in self.scopes:
                self._check_resource_lifecycle(fn)
            if "own" in self.scopes:
                self._check_ownership(fn, stack)

    @staticmethod
    def _functions(
        tree: ast.Module,
    ) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, tuple[str, ...]]]:
        """Yield every function with its enclosing-function name stack."""
        out: list[tuple[ast.FunctionDef | ast.AsyncFunctionDef, tuple[str, ...]]] = []

        def visit(node: ast.AST, stack: tuple[str, ...]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out.append((child, stack))
                    visit(child, stack + (child.name,))
                else:
                    visit(child, stack)

        visit(tree, ())
        yield from out

    # -- DET001 / DET002 / ROL001 / DTY001 (call-shaped) ----------------

    def _check_call(self, node: ast.Call) -> None:
        resolved = _resolve(node.func, self.aliases)
        if resolved is None:
            self._check_astype(node)
            return

        if "det001" in self.scopes:
            if resolved in _SEEDED_CTORS:
                if self._seed_missing(node):
                    self.flag(
                        node, "DET001",
                        f"{resolved}() without an explicit seed breaks "
                        "run-to-run determinism",
                    )
            elif resolved.startswith("numpy.random."):
                attr = resolved.rsplit(".", 1)[1]
                if attr in _NP_LEGACY_RNG:
                    self.flag(
                        node, "DET001",
                        f"legacy global-state RNG call {resolved}(); use a "
                        "seeded np.random.Generator instead",
                    )
            elif resolved.startswith("random."):
                attr = resolved.rsplit(".", 1)[1]
                if attr in _STDLIB_RNG:
                    self.flag(
                        node, "DET001",
                        f"stdlib global-state RNG call {resolved}()",
                    )

        if "det002" in self.scopes and resolved in _WALL_CLOCK:
            self.flag(
                node, "DET002",
                f"wall-clock call {resolved}() outside telemetry/ and "
                "workflow/",
            )

        if "roll" in self.scopes and resolved == "numpy.roll":
            self.flag(
                node, "ROL001",
                "np.roll() in a model stencil path pays generic axis "
                "handling per call",
            )

        if "dtype" in self.scopes and resolved in _DEFAULT_F64_CTORS:
            n_pos = _DEFAULT_F64_CTORS[resolved]
            has_dtype = len(node.args) >= n_pos or any(
                kw.arg == "dtype" for kw in node.keywords
            )
            if not has_dtype:
                short = resolved.rsplit(".", 1)[1]
                self.flag(
                    node, "DTY001",
                    f"np.{short}() without dtype= defaults to float64 in a "
                    "single-precision hot path",
                )

    def _check_astype(self, node: ast.Call) -> None:
        if "dtype" not in self.scopes:
            return
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "astype"
            and node.args
            and _is_f64_dtype_value(node.args[0], self.aliases)
        ):
            self.flag(
                node, "DTY001",
                "astype(float64) promotion in a single-precision hot path",
            )

    @staticmethod
    def _seed_missing(node: ast.Call) -> bool:
        if node.args:
            first = node.args[0]
            return isinstance(first, ast.Constant) and first.value is None
        for kw in node.keywords:
            if kw.arg == "seed":
                return isinstance(kw.value, ast.Constant) and kw.value.value is None
            if kw.arg is None:  # **kwargs — cannot prove, stay silent
                return False
        return True

    # -- MUT001 ---------------------------------------------------------

    def _check_mutation(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        a = fn.args
        params = {
            p.arg
            for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)
        }
        for var in (a.vararg, a.kwarg):
            if var is not None:
                params.add(var.arg)
        params -= {"self", "cls"}
        params = {
            p for p in params
            if p != "out" and not p.startswith("out_") and not p.endswith("_out")
        }
        if not params:
            return

        for node in self._walk_own(fn):
            if isinstance(node, ast.Assign):
                targets: list[ast.AST] = []
                for t in node.targets:
                    targets.extend(t.elts if isinstance(t, ast.Tuple) else [t])
                for t in targets:
                    if isinstance(t, ast.Subscript):
                        name = _base_param(t)
                        if name in params:
                            self.flag(
                                t, "MUT001",
                                f"kernel writes into parameter '{name}' "
                                "(subscript assignment)",
                            )
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Subscript
            ):
                name = _base_param(node.target)
                if name in params:
                    self.flag(
                        node.target, "MUT001",
                        f"kernel writes into parameter '{name}' "
                        "(augmented subscript assignment)",
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in params
                    and func.attr in _MUTATING_METHODS
                ):
                    self.flag(
                        node, "MUT001",
                        f"kernel mutates parameter '{func.value.id}' via "
                        f".{func.attr}()",
                    )
                for kw in node.keywords:
                    if (
                        kw.arg == "out"
                        and isinstance(kw.value, ast.Name)
                        and kw.value.id in params
                    ):
                        self.flag(
                            node, "MUT001",
                            f"kernel writes into parameter '{kw.value.id}' "
                            "via out=",
                        )
                resolved = _resolve(func, self.aliases)
                if (
                    resolved == "numpy.copyto"
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in params
                ):
                    self.flag(
                        node, "MUT001",
                        f"kernel writes into parameter '{node.args[0].id}' "
                        "via np.copyto",
                    )

    @staticmethod
    def _walk_own(fn: ast.AST) -> Iterator[ast.AST]:
        """Walk a function body without descending into nested defs."""
        stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                stack.extend(ast.iter_child_nodes(node))

    # -- LAY001 ---------------------------------------------------------

    def _floating_expr(self, node: ast.AST, floating: set[str]) -> bool:
        """Does this expression yield a layout-floating (transposed) view?"""
        if isinstance(node, ast.Name):
            return node.id in floating
        if isinstance(node, ast.Attribute):
            if node.attr == "T":
                return True
            return False
        if isinstance(node, ast.Call):
            resolved = _resolve(node.func, self.aliases)
            if resolved in _PIN_FUNCS:
                return False
            if resolved in _TRANSPOSE_FUNCS:
                return True
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr in _TRANSPOSE_METHODS:
                    return True
                if func.attr in _PASSTHROUGH_METHODS:
                    return self._floating_expr(func.value, floating)
                if func.attr in ("copy", "astype"):
                    return False
            return False
        if isinstance(node, ast.Subscript):
            # a slice of a floating view stays floating
            return self._floating_expr(node.value, floating)
        return False

    def _check_layout(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        floating: set[str] = set()
        nodes = sorted(
            self._walk_own(fn),
            key=lambda n: (getattr(n, "lineno", 0), getattr(n, "col_offset", 0)),
        )
        for node in nodes:
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                for side, operand in (("left", node.left), ("right", node.right)):
                    if self._floating_expr(operand, floating):
                        self.flag(
                            operand, "LAY001",
                            f"{side} operand of '@' is a layout-floating "
                            "transposed view",
                        )
            elif isinstance(node, ast.Call):
                resolved = _resolve(node.func, self.aliases)
                if resolved in _GEMM_FUNCS:
                    for arg in node.args:
                        if isinstance(arg, ast.Constant):
                            continue
                        if self._floating_expr(arg, floating):
                            self.flag(
                                arg, "LAY001",
                                f"operand of {resolved.rsplit('.', 1)[1]}() is "
                                "a layout-floating transposed view",
                            )
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(
                node.targets[0], ast.Name
            ):
                name = node.targets[0].id
                if self._floating_expr(node.value, floating):
                    floating.add(name)
                else:
                    floating.discard(name)

    # -- ASY001 ---------------------------------------------------------

    def _check_async_blocking(self, fn: ast.AsyncFunctionDef) -> None:
        for node in self._walk_own(fn):
            if not isinstance(node, ast.Call):
                continue
            resolved = _resolve(node.func, self.aliases)
            if resolved is not None and (
                resolved in _ASYNC_BLOCKING
                or resolved.startswith(_ASYNC_BLOCKING_PREFIXES)
            ):
                self.flag(
                    node, "ASY001",
                    f"blocking call {resolved}() inside 'async def "
                    f"{fn.name}' stalls the event loop",
                )
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id == "open"
                and "open" not in self.aliases
            ):
                self.flag(
                    node, "ASY001",
                    f"sync file open() inside 'async def {fn.name}' "
                    "stalls the event loop",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _ASYNC_BLOCKING_METHODS
            ):
                self.flag(
                    node, "ASY001",
                    f"sync file I/O .{node.func.attr}() inside 'async def "
                    f"{fn.name}' stalls the event loop",
                )

    # -- ASY002 ---------------------------------------------------------

    def _check_unawaited(self, tree: ast.Module) -> None:
        async_names = {
            n.name for n in ast.walk(tree)
            if isinstance(n, ast.AsyncFunctionDef)
        }
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
                continue
            call = node.value
            resolved = _resolve(call.func, self.aliases)
            fire_forget = resolved in (
                "asyncio.create_task", "asyncio.ensure_future"
            )
            if not fire_forget and isinstance(call.func, ast.Attribute):
                # loop.create_task(...) spelled through a loop variable
                recv = call.func.value
                if (
                    call.func.attr in ("create_task", "ensure_future")
                    and isinstance(recv, ast.Name)
                    and "loop" in recv.id.lower()
                ):
                    fire_forget = True
            if fire_forget:
                self.flag(
                    call, "ASY002",
                    "fire-and-forget create_task: the task handle is "
                    "dropped, so the task can be garbage-collected "
                    "mid-flight and its exception is lost",
                )
            elif isinstance(call.func, ast.Name) and call.func.id in async_names:
                self.flag(
                    call, "ASY002",
                    f"coroutine '{call.func.id}()' is never awaited — the "
                    "call builds a coroutine object and discards it",
                )

    # -- SHM001 / RES001 shared dataflow --------------------------------

    @staticmethod
    def _escaped_names(fn: ast.AST) -> set[str]:
        """Names whose value leaves the function (stored, passed,
        returned, aliased) — ownership transfers, so the handle is not
        provably leaked here. Full walk: closures count as escapes'
        observers, not new scopes."""
        esc: set[str] = set()

        def mark(node: ast.AST | None) -> None:
            if isinstance(node, ast.Name):
                esc.add(node.id)
            elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                for e in node.elts:
                    mark(e)
            elif isinstance(node, ast.Dict):
                for v in node.values:
                    mark(v)
            elif isinstance(node, ast.Starred):
                mark(node.value)

        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                for a in node.args:
                    mark(a)
                for kw in node.keywords:
                    mark(kw.value)
            elif isinstance(node, ast.Assign):
                if not (
                    len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)
                ):
                    # storing into an attribute/subscript/alias hands the
                    # value to another owner
                    mark(node.value)
            elif isinstance(node, ast.AnnAssign):
                mark(node.value)
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                mark(node.value)
        return esc

    @staticmethod
    def _released_names(fn: ast.AST, methods: set[str]) -> set[str]:
        """Names that get a release-method call or a with-block."""
        rel: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                recv = node.func.value
                if isinstance(recv, ast.Name) and node.func.attr in methods:
                    rel.add(recv.id)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.context_expr, ast.Name):
                        rel.add(item.context_expr.id)
        return rel

    def _check_shm_lifecycle(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        created: dict[str, tuple[ast.Call, bool]] = {}
        for node in self._walk_own(fn):
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                continue
            if _resolve(node.value.func, self.aliases) != _SHM_CTOR:
                continue
            is_create = any(
                kw.arg == "create"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in node.value.keywords
            )
            created[node.targets[0].id] = (node.value, is_create)
        if not created:
            return
        esc = self._escaped_names(fn)
        rel = self._released_names(fn, {"close", "unlink"})
        for name, (node, is_create) in created.items():
            if name in esc or name in rel:
                continue
            if is_create:
                self.flag(
                    node, "SHM001",
                    f"SharedMemory(create=True) handle '{name}' never "
                    "reaches close()/unlink() and never escapes — the "
                    "segment outlives the process in /dev/shm",
                )
            else:
                self.flag(
                    node, "SHM001",
                    f"attached SharedMemory handle '{name}' never reaches "
                    "close() and never escapes — the mapping leaks",
                )

    def _check_resource_lifecycle(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        tracked: dict[str, ast.Call] = {}
        for node in self._walk_own(fn):
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                continue
            resolved = _resolve(node.value.func, self.aliases)
            last = (
                resolved.rsplit(".", 1)[-1]
                if resolved
                else _terminal_ident(node.value.func)
            )
            if last in _RES_CTORS:
                tracked[node.targets[0].id] = node.value
        if not tracked:
            return
        esc = self._escaped_names(fn)
        rel = self._released_names(fn, _RES_RELEASE_METHODS)
        for name, node in tracked.items():
            if name in esc or name in rel:
                continue
            ctor = _terminal_ident(node.func) or "resource"
            self.flag(
                node, "RES001",
                f"{ctor} '{name}' is constructed but no exit path "
                "closes it (no close()/aclose()/shutdown(), no context "
                "manager, never handed off)",
            )

    # -- OWN001 ---------------------------------------------------------

    def _check_ownership(
        self,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        stack: tuple[str, ...],
    ) -> None:
        if fn.name in _OWN_SANCTIONED or any(s in _OWN_SANCTIONED for s in stack):
            return

        shared: set[str] = set()
        blocks: set[str] = set()

        def is_shared_base(node: ast.AST) -> bool:
            if isinstance(node, ast.Name) and node.id in shared:
                return True
            return _looks_shared(node)

        def is_block_target(node: ast.AST) -> bool:
            """Does this subscript write land in a shared block?"""
            while isinstance(node, ast.Subscript):
                node = node.value
            if isinstance(node, ast.Attribute) and node.attr in ("fields", "aux"):
                return is_shared_base(node.value)
            return isinstance(node, ast.Name) and node.id in blocks

        # pass 1: collect shared handles and block views (flow-insensitive)
        for node in self._walk_own(fn):
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                continue
            name = node.targets[0].id
            value = node.value
            if isinstance(value, ast.Call):
                func = value.func
                resolved = _resolve(func, self.aliases)
                last = (
                    resolved.rsplit(".", 1)[-1]
                    if resolved
                    else _terminal_ident(func)
                )
                if last in ("SharedStateSlab", "SharedArena", "_attach_cached"):
                    shared.add(name)
                elif isinstance(func, ast.Attribute) and func.attr in (
                    "attach", "to_shared", "share"
                ):
                    shared.add(name)
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr == "get"
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr in ("fields", "aux")
                    and is_shared_base(func.value.value)
                ):
                    blocks.add(name)
            elif isinstance(value, ast.Subscript):
                base = value
                while isinstance(base, ast.Subscript):
                    base = base.value
                if isinstance(base, ast.Attribute) and base.attr in (
                    "fields", "aux"
                ) and is_shared_base(base.value):
                    blocks.add(name)

        # pass 2: flag foreign writes
        for node in self._walk_own(fn):
            if isinstance(node, ast.Assign):
                targets: list[ast.AST] = []
                for t in node.targets:
                    targets.extend(t.elts if isinstance(t, ast.Tuple) else [t])
                for t in targets:
                    if isinstance(t, ast.Subscript) and is_block_target(t):
                        self.flag(
                            t, "OWN001",
                            f"'{fn.name}' writes into a shared slab/arena "
                            "block but is not a sanctioned owner "
                            "(the pool's block functions only)",
                        )
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Subscript
            ):
                if is_block_target(node.target):
                    self.flag(
                        node.target, "OWN001",
                        f"'{fn.name}' writes into a shared slab/arena "
                        "block but is not a sanctioned owner "
                        "(the pool's block functions only)",
                    )


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    include_suppressed: bool = False,
) -> list[Finding]:
    """Lint one source string; ``path`` drives rule scoping."""
    tree = ast.parse(source, filename=path)
    linter = _Linter(path, tree, _scopes(path))
    linter.check_module(tree)
    suppressed = _suppressions(source)

    out: list[Finding] = []
    lines = source.splitlines()
    for f, end_line in linter.findings:
        src_line = lines[f.line - 1].strip() if 0 < f.line <= len(lines) else ""
        # accept an annotation on any physical line of the flagged
        # expression, the line above it, or the line below its end
        is_suppressed = any(
            f.code in suppressed.get(ln, ())
            for ln in range(f.line - 1, end_line + 2)
        )
        f = Finding(
            path=f.path, line=f.line, col=f.col, code=f.code,
            message=f.message, source=src_line, suppressed=is_suppressed,
        )
        if include_suppressed or not f.suppressed:
            out.append(f)
    out.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return out


def lint_file(path: str | Path, *, include_suppressed: bool = False) -> list[Finding]:
    p = Path(path)
    source = p.read_text(encoding="utf-8")
    return lint_source(
        source, str(p), include_suppressed=include_suppressed
    )


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into .py files, skipping hidden dirs."""
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                if not any(part.startswith(".") for part in f.parts):
                    yield f
        elif p.suffix == ".py":
            yield p


def lint_paths(
    paths: Iterable[str | Path], *, include_suppressed: bool = False
) -> list[Finding]:
    """Lint every .py file under ``paths``; returns sorted findings."""
    findings: list[Finding] = []
    for f in iter_python_files(paths):
        findings.extend(lint_file(f, include_suppressed=include_suppressed))
    return findings
