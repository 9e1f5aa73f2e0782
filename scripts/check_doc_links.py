#!/usr/bin/env python3
"""Dead-link and config-drift check for the markdown docs.

Scans README.md and docs/**/*.md for relative markdown links
(`[text](path)` and `[text](path#anchor)`) and fails if any target
file does not exist. External links (http/https/mailto) are skipped —
CI runs offline. Anchors are checked for same-file links only in the
cheap way: the heading must appear somewhere in the target file as a
`#` heading whose slug matches.

It also fails when the docs drift from the types that
crates/core/src/lib.rs and crates/unify/src/lib.rs export. README's
`EngineConfig` field table (and its "has N fields" count) must list
exactly the fields of `pub struct EngineConfig`. And a code span
`<T>::<name>` in README.md or docs/**, where `<T>` is a type either
crate exports (`eq_core`'s, or `eq_unify`'s `Unifier` and `Conflict`),
optionally prefixed with its crate, must name one of `<T>`'s `pub`
fields or variants, a `pub` or `pub(crate)` fn of an inherent
`impl <T>` in that crate, or a fn of a trait impl for `<T>` (a derived
`Default` counts as `default`).

And it fails when a code span in README.md or docs/** names an
`eq_core::<path>` that crates/core/src does not declare `pub`: the
first segment must be a `pub mod` of lib.rs or a name lib.rs exports,
the next (inside a module) a `pub` item or `pub use` of that module's
file, and any further segment a function, `pub` field or enum variant
declared somewhere in crates/core/src.
"""

import re
import sys
from pathlib import Path

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
REPO = Path(__file__).resolve().parent.parent
CORE = REPO / "crates" / "core" / "src"
UNIFY = REPO / "crates" / "unify" / "src"
ENGINE = CORE / "engine.rs"
CONFIG_TABLE = re.compile(
    r"`EngineConfig` has (\d+) fields:\s*\n\s*\n\| Field \|[^\n]*\n\|[-| ]+\|\n((?:\|[^\n]*\n)+)"
)


def crate_sources(crate: Path) -> str:
    """Every source file of the crate, module directories included."""
    return "\n".join(p.read_text(encoding="utf-8") for p in sorted(crate.rglob("*.rs")))


def type_api(src: str, name: str) -> tuple[list[str], set[str]]:
    """The `pub` fields of type `name` in declaration order, and every
    name `name::<x>` may use (see the module docs)."""
    fields, members = [], set()
    decl = rf"^pub (struct|enum) {name}\b[^;{{]*\{{\n(.*?)^\}}"
    for kind, body in re.findall(decl, src, re.M | re.S):
        if kind == "struct":
            fields += re.findall(r"^\s*pub (\w+):", body, re.M)
        else:
            members.update(re.findall(r"^ {4}(\w+)\b", body, re.M))
    derive = rf"#\[derive\(([^)]*)\)\]\s*(?:#\[[^\]]*\]\s*)*pub (?:struct|enum) {name}\b"
    if any("Default" in d for d in re.findall(derive, src)):
        members.add("default")
    impl = (
        rf"^impl(?:<[^{{\n]*?>)?\s+([^{{\n]*?\s+for\s+)?{name}(?:<[^{{\n]*>)?\s*\{{\n(.*?)^\}}"
    )
    for trait_for, body in re.findall(impl, src, re.M | re.S):
        fn = r"\bfn (\w+)" if trait_for else r"^\s*pub(?:\(crate\))? (?:const )?fn (\w+)"
        members.update(re.findall(fn, body, re.M))
    return fields, members | set(fields)


def config_drift(src: str) -> list[str]:
    fields, _ = type_api(src, "EngineConfig")
    if not fields:
        return [f"{ENGINE.relative_to(REPO)}: no `pub struct EngineConfig` fields"]
    errors = []
    table = CONFIG_TABLE.search((REPO / "README.md").read_text(encoding="utf-8"))
    if table is None:
        errors.append("README.md: no \"`EngineConfig` has N fields\" table")
    else:
        listed = re.findall(r"^\| `(\w+)` \|", table.group(2), re.M)
        if sorted(listed) != sorted(fields):
            errors.append(
                f"README.md: EngineConfig table lists {sorted(listed)}, "
                f"the struct has {sorted(fields)}"
            )
        if int(table.group(1)) != len(fields):
            errors.append(
                f"README.md: says EngineConfig has {table.group(1)} fields, "
                f"the struct has {len(fields)}"
            )
    return errors


def type_member_drift(files: list[Path], crates: dict[str, Path]) -> list[str]:
    """`T::member` spans against the types each of `crates` (crate name
    -> its src directory) exports from its lib.rs."""
    srcs = {crate: crate_sources(src_dir) for crate, src_dir in crates.items()}
    owners = {}
    for crate, src_dir in crates.items():
        for name in pub_names((src_dir / "lib.rs").read_text(encoding="utf-8")):
            if name[0].isupper():
                owners.setdefault(name, []).append(crate)
    apis = {}
    errors = []
    for f in files:
        text = f.read_text(encoding="utf-8")
        paths = {p for span in CODE_SPAN.findall(text) for p in TYPE_PATH.findall(span)}
        for path in sorted(paths):
            segments = path.split("::")
            if segments[0] in srcs:
                crate, segments = segments[0], segments[1:]
                owning = [crate] if crate in owners.get(segments[0], []) else []
            else:
                owning = owners.get(segments[0], [])
            if len(segments) < 2 or not owning:
                continue
            ty, name = segments[:2]
            for crate in owning:
                if (crate, ty) not in apis:
                    apis[crate, ty] = type_api(srcs[crate], ty)[1]
            if not any(name in apis[crate, ty] for crate in owning):
                errors.append(f"{f.relative_to(REPO)}: no such {ty}::{name}")
    return errors


CODE_SPAN = re.compile(r"`([^`\n]+)`")
CORE_PATH = re.compile(r"\beq_core((?:::\w+)+)")
TYPE_PATH = re.compile(r"\b\w+(?:::\w+)+")
PUB_ITEM = re.compile(
    r"^\s*pub\s+(?:unsafe\s+)?(?:fn|struct|enum|trait|type|const|static|mod)\s+(\w+)", re.M
)
PUB_USE = re.compile(r"^\s*pub\s+use\s+([^;]+);", re.M)


def pub_names(src: str) -> set[str]:
    """Names a source file declares `pub` (not `pub(crate)`) or re-exports."""
    names = set(PUB_ITEM.findall(src))
    for m in PUB_USE.finditer(src):
        body = m.group(1)
        if "{" in body:
            body = body[body.index("{") + 1 : body.rindex("}")]
        for piece in body.split(","):
            words = re.findall(r"\w+", piece)
            if words:
                names.add(words[-1])  # the last word: the name, or its `as` alias
    return names


def core_path_drift(files: list[Path], every_src: str) -> list[str]:
    lib = (CORE / "lib.rs").read_text(encoding="utf-8")
    modules = set(re.findall(r"^pub mod (\w+);", lib, re.M))
    exported = pub_names(lib)

    def member(name: str) -> bool:
        decl = rf"\bfn {name}\b|\bpub {name}:|^\s*{name}\b\s*(?:[({{,]|$)"
        return re.search(decl, every_src, re.M) is not None

    def resolves(segments: list[str]) -> bool:
        first, rest = segments[0], segments[1:]
        if first in modules:
            if rest:
                module = CORE / f"{first}.rs"
                if not module.exists():
                    module = CORE / first / "mod.rs"
                module_src = module.read_text(encoding="utf-8")
                if rest[0] not in pub_names(module_src):
                    return False
                rest = rest[1:]
        elif first not in exported:
            return False
        return all(member(name) for name in rest)

    errors = []
    for f in files:
        text = f.read_text(encoding="utf-8")
        paths = {m.group(1) for span in CODE_SPAN.findall(text) for m in CORE_PATH.finditer(span)}
        for path in sorted(paths):
            if not resolves(path.split("::")[1:]):
                errors.append(f"{f.relative_to(REPO)}: no pub item eq_core{path}")
    return errors


def slug(heading: str) -> str:
    s = heading.strip().lower()
    s = re.sub(r"[^\w\- ]", "", s)
    return s.replace(" ", "-")


def anchors_of(path: Path) -> set[str]:
    out = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            out.add(slug(line.lstrip("#")))
    return out


def main() -> int:
    files = [REPO / "README.md"] + sorted((REPO / "docs").glob("**/*.md"))
    errors = []
    for f in files:
        text = f.read_text(encoding="utf-8")
        for m in LINK.finditer(text):
            target = m.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, anchor = target.partition("#")
            resolved = (f.parent / path_part).resolve() if path_part else f
            if path_part and not resolved.exists():
                errors.append(f"{f.relative_to(REPO)}: broken link -> {target}")
                continue
            if anchor and resolved.suffix == ".md" and resolved.exists():
                if anchor not in anchors_of(resolved):
                    errors.append(
                        f"{f.relative_to(REPO)}: missing anchor -> {target}"
                    )
    src = crate_sources(CORE)
    errors += config_drift(src)
    errors += type_member_drift(files, {"eq_core": CORE, "eq_unify": UNIFY})
    errors += core_path_drift(files, src)
    if errors:
        print("dead links, EngineConfig, type member or eq_core path drift found:", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    print(f"doc links, EngineConfig table, type members and eq_core paths ok ({len(files)} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
