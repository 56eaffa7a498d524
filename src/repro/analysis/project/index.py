"""The project index: every module parsed, every symbol cross-linked.

A :class:`ProjectIndex` is built once per ``repro lint --project`` run
from the same :class:`~repro.analysis.engine.ModuleSource` objects the
per-file pass uses.  It records, for the whole file set:

* the module graph (module name -> source, import edges);
* a symbol table of top-level classes and functions, with methods;
* per-class attribute facts: the class types each ``self.X`` can hold
  (``self.x = ClassName(...)`` and ``Union``/``Optional`` annotations),
  which the call graph uses to resolve method calls.

Resolution is deliberately *precision over recall*: a name that cannot
be traced to exactly one in-project symbol resolves to nothing, so the
interprocedural rules stay quiet rather than guess.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.analysis.engine import ModuleSource

__all__ = ["ClassInfo", "FunctionInfo", "ProjectIndex"]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class FunctionInfo:
    """One indexed function or method."""

    name: str
    qualname: str  # "module.func" or "module.Class.method"
    module: str
    node: FunctionNode
    class_name: Optional[str] = None  # bare class name for methods

    @property
    def is_method(self) -> bool:
        return self.class_name is not None


@dataclass
class ClassInfo:
    """One indexed class: methods, base names, attribute facts."""

    name: str
    qualname: str  # "module.Class"
    module: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)  # raw dotted base names
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: bare class names an attribute may hold (constructor calls + annotations).
    attr_class_names: Dict[str, List[str]] = field(default_factory=dict)


def _annotation_class_names(annotation: ast.expr) -> List[str]:
    """Bare class names named by an annotation (through Union/Optional)."""
    if isinstance(annotation, ast.Name):
        return [annotation.id]
    if isinstance(annotation, ast.Attribute):
        return [annotation.attr]
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return [annotation.value.split(".")[-1].strip()]
    if isinstance(annotation, ast.Subscript):
        head = annotation.value
        head_name = head.id if isinstance(head, ast.Name) else (
            head.attr if isinstance(head, ast.Attribute) else ""
        )
        if head_name in ("Union", "Optional"):
            inner = annotation.slice
            elements = inner.elts if isinstance(inner, ast.Tuple) else [inner]
            names: List[str] = []
            for element in elements:
                names.extend(_annotation_class_names(element))
            return [n for n in names if n != "None"]
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return [
            n
            for side in (annotation.left, annotation.right)
            for n in _annotation_class_names(side)
            if n != "None"
        ]
    return []


class ProjectIndex:
    """Cross-linked view of every linted module."""

    def __init__(
        self,
        modules: Sequence[ModuleSource],
        project_root: Optional[Path] = None,
    ) -> None:
        self.project_root = Path(project_root) if project_root is not None else Path.cwd()
        self.modules: Dict[str, ModuleSource] = {}
        self.by_path: Dict[str, ModuleSource] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        for module in modules:
            if module.parse_error is not None:
                continue  # the per-file pass reports it; nothing to index
            self.modules[module.module] = module
            self.by_path[module.display_path] = module
        for module in self.modules.values():
            self._index_module(module)

    # -- construction --------------------------------------------------------

    def _index_module(self, module: ModuleSource) -> None:
        body = getattr(module.tree, "body", [])
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    name=node.name,
                    qualname=f"{module.module}.{node.name}",
                    module=module.module,
                    node=node,
                )
                self.functions[info.qualname] = info
            elif isinstance(node, ast.ClassDef):
                self._index_class(module, node)

    def _index_class(self, module: ModuleSource, node: ast.ClassDef) -> None:
        info = ClassInfo(
            name=node.name,
            qualname=f"{module.module}.{node.name}",
            module=module.module,
            node=node,
        )
        for base in node.bases:
            dotted = module.qualified_name(base)
            if dotted is None and isinstance(base, ast.Name):
                dotted = base.id
            if dotted is not None:
                info.bases.append(dotted)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = FunctionInfo(
                    name=item.name,
                    qualname=f"{info.qualname}.{item.name}",
                    module=module.module,
                    node=item,
                    class_name=node.name,
                )
                info.methods[item.name] = method
                self.functions[method.qualname] = method
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                for cls_name in _annotation_class_names(item.annotation):
                    info.attr_class_names.setdefault(item.target.id, []).append(cls_name)
        for method in info.methods.values():
            self._collect_attr_classes(info, method)
        self.classes[info.qualname] = info

    def _collect_attr_classes(self, info: ClassInfo, method: FunctionInfo) -> None:
        for node in ast.walk(method.node):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            annotation: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value, annotation = node.target, node.value, node.annotation
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr = target.attr
            if isinstance(value, ast.Call):
                callee = value.func
                bare = (
                    callee.id
                    if isinstance(callee, ast.Name)
                    else callee.attr if isinstance(callee, ast.Attribute) else ""
                )
                if bare and bare[0].isupper():
                    info.attr_class_names.setdefault(attr, []).append(bare)
            if annotation is not None:
                for cls_name in _annotation_class_names(annotation):
                    info.attr_class_names.setdefault(attr, []).append(cls_name)

    # -- resolution -----------------------------------------------------------

    def resolve_dotted(self, dotted: str) -> Optional[str]:
        """An absolute dotted name -> an indexed symbol qualname, if any."""
        if dotted in self.functions or dotted in self.classes:
            return dotted
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module_name = ".".join(parts[:cut])
            if module_name in self.modules:
                candidate = dotted
                if candidate in self.functions or candidate in self.classes:
                    return candidate
                return None
        return None

    def resolve_name(self, module: ModuleSource, name: str) -> Optional[str]:
        """A bare local name in ``module`` -> an indexed symbol qualname."""
        local = f"{module.module}.{name}"
        if local in self.functions or local in self.classes:
            return local
        dotted = module.imports.get(name)
        if dotted is not None:
            return self.resolve_dotted(dotted)
        return None

    def resolve_call_target(
        self, module: ModuleSource, func: ast.expr
    ) -> Optional[str]:
        """Resolve a call's function expression to a symbol qualname."""
        if isinstance(func, ast.Name):
            return self.resolve_name(module, func.id)
        dotted = module.qualified_name(func)
        if dotted is not None:
            return self.resolve_dotted(dotted)
        return None

    def mro(self, class_qualname: str) -> Iterator[ClassInfo]:
        """The class and its in-project ancestors, nearest first."""
        seen = set()
        stack = [class_qualname]
        while stack:
            qualname = stack.pop(0)
            if qualname in seen:
                continue
            seen.add(qualname)
            info = self.classes.get(qualname)
            if info is None:
                continue
            yield info
            module = self.modules[info.module]
            for base in info.bases:
                resolved = (
                    self.resolve_name(module, base)
                    if "." not in base
                    else self.resolve_dotted(base)
                )
                if resolved is not None:
                    stack.append(resolved)

    def lookup_method(
        self, class_qualname: str, method_name: str
    ) -> Optional[FunctionInfo]:
        """Resolve ``method_name`` on a class through its in-project MRO."""
        for info in self.mro(class_qualname):
            method = info.methods.get(method_name)
            if method is not None:
                return method
        return None

    def attr_classes(self, class_qualname: str, attr: str) -> List[str]:
        """Class qualnames attribute ``attr`` may hold, through the MRO."""
        resolved: List[str] = []
        for info in self.mro(class_qualname):
            module = self.modules[info.module]
            for bare in info.attr_class_names.get(attr, ()):
                qualname = self.resolve_name(module, bare)
                if qualname is not None and qualname in self.classes:
                    if qualname not in resolved:
                        resolved.append(qualname)
        return resolved

    def classes_named(self, bare_name: str) -> List[ClassInfo]:
        """Every indexed class with this bare name (any module)."""
        return [c for c in self.classes.values() if c.name == bare_name]

    # -- docs -----------------------------------------------------------------

    def read_doc(self, relative: str) -> Optional[str]:
        """The text of a doc file under the project root, if present."""
        path = self.project_root / relative
        try:
            return path.read_text(encoding="utf-8")
        except OSError:
            return None
