"""The README's CLI walkthrough runs as written, and the names it cites
exist."""

import importlib
import json
import pkgutil
import re
import shlex
from pathlib import Path

import patchmoe
from patchmoe import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def walkthrough():
    """The files the walkthrough writes with `cat > name <<'TAG'` and its
    `patchmoe ...` command lines, backslash continuations joined."""
    text = README.read_text().split("## CLI walkthrough", 1)[1]
    block = re.search(r"```sh\n(.*?)```", text, re.S).group(1)
    files = {name: body for name, _, body in
             re.findall(r"cat > (\S+) <<'(\w+)'\n(.*?\n)\2\n", block, re.S)}
    commands = [shlex.split(line)[1:]
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("patchmoe ")]
    return files, commands


def quoted_inspect_lines():
    """The `inspect` output lines the walkthrough's prose quotes, each
    joined onto one line."""
    text = README.read_text().split("## CLI walkthrough", 1)[1].split("\n### ", 1)[0]
    return [" ".join(quote.split()) for quote in re.findall(r"`(layer \d+: .*?)`", text, re.S)]


def test_walkthrough_exits_zero(tmp_path, monkeypatch, capsys):
    """Every command exits 0, and `inspect` prints the lines README quotes."""
    files, commands = walkthrough()
    assert sorted(files) == ["run.ini", "spec.json"]
    assert [argv[0] for argv in commands] == [
        "gen-data", "pretrain", "moefy", "finetune", "eval", "affinity", "inspect"]
    monkeypatch.chdir(tmp_path)
    for name, body in files.items():
        (tmp_path / name).write_text(body)
    for argv in commands:
        assert cli.main(argv) == 0, argv
    quoted = quoted_inspect_lines()
    assert [line.split(":")[1].split()[0] for line in quoted] == ["experts", "gamma"]
    out = capsys.readouterr().out.splitlines()
    assert all(line in out for line in quoted), quoted


def module_references():
    """The backticked `module.name` references in the README whose module
    is a patchmoe module or `T`, the name the code imports tensor as."""
    modules = {m.name for m in pkgutil.iter_modules(patchmoe.__path__)} | {"T"}
    return sorted({(module, name) for module, name
                   in re.findall(r"`(\w+)\.(\w+)", README.read_text()) if module in modules})


def test_module_references_resolve():
    """Each reference is an attribute of its module, else a key of that
    section of the run configuration (`router_init.seed`), else a per-layer
    metric the benchmark reports (`tensor.tape_bytes_per_batch`)."""
    metrics = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    refs = module_references()
    assert ("backbone", "CAPTURE_CHUNK") in refs and ("T", "split_rows") in refs
    unresolved = [
        f"{module}.{name}" for module, name in refs
        if not hasattr(importlib.import_module(f"patchmoe.{'tensor' if module == 'T' else module}"),
                       name)
        and name not in cli.CONFIG_SCHEMA.get(module, {})
        and f"{module}.{name}" not in metrics]
    assert unresolved == []
