#!/usr/bin/env python3
"""Dead-link and config-drift check for the markdown docs.

Scans README.md and docs/**/*.md for relative markdown links
(`[text](path)` and `[text](path#anchor)`) and fails if any target
file does not exist. External links (http/https/mailto) are skipped —
CI runs offline. Anchors are checked for same-file links only in the
cheap way: the heading must appear somewhere in the target file as a
`#` heading whose slug matches.

It also fails when the docs drift from `pub struct EngineConfig` in
crates/core/src/engine.rs: README's field table (and its "has N
fields" count) must list exactly the struct's fields, and no
`EngineConfig::<name>` in README.md or docs/** may name something the
struct has neither as a field nor as an associated function.
"""

import re
import sys
from pathlib import Path

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
REPO = Path(__file__).resolve().parent.parent
ENGINE = REPO / "crates" / "core" / "src" / "engine.rs"
CONFIG_TABLE = re.compile(
    r"`EngineConfig` has (\d+) fields:\s*\n\s*\n\| Field \|[^\n]*\n\|[-| ]+\|\n((?:\|[^\n]*\n)+)"
)


def engine_config_api() -> tuple[list[str], set[str]]:
    """The struct's fields, and the names of its associated functions."""
    src = ENGINE.read_text(encoding="utf-8")
    body = re.search(r"pub struct EngineConfig \{(.*?)\n\}", src, re.S)
    if body is None:
        sys.exit(f"{ENGINE.relative_to(REPO)}: no `pub struct EngineConfig`")
    fields = re.findall(r"^\s*pub (\w+):", body.group(1), re.M)
    fns = {"default"}
    for block in re.finditer(r"\nimpl EngineConfig \{(.*?)\n\}", src, re.S):
        fns.update(re.findall(r"\bfn (\w+)", block.group(1)))
    return fields, fns


def config_drift(files: list[Path]) -> list[str]:
    fields, fns = engine_config_api()
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
    for f in files:
        text = f.read_text(encoding="utf-8")
        for name in sorted(set(re.findall(r"EngineConfig::(\w+)", text))):
            if name not in fields and name not in fns:
                errors.append(f"{f.relative_to(REPO)}: no such EngineConfig::{name}")
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
    errors += config_drift(files)
    if errors:
        print("dead links or EngineConfig drift found:", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    print(f"doc links and EngineConfig table ok ({len(files)} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
