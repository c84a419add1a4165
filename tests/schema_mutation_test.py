#!/usr/bin/env python3
"""Structured mutation sweep over valid bench_schema_check artifacts.

Every mutant changes one thing in one valid artifact: it drops one
object key, retypes one value, or empties one non-empty array. Arrays
are walked at their first element. Retyping maps number -> string,
string -> number, boolean -> number, null -> number, array -> object
and object -> array.

The checker must accept every artifact as given and reject every
mutant, except retyping a sweep axis value from one scalar type to
another: axis values may be any scalar, so that mutant is still valid
and must be accepted.

usage: schema_mutation_test.py <bench_schema_check> <valid.json>...
"""
import copy
import json
import os
import subprocess
import sys
import tempfile

DROP = object()


def retyped(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, str):
        return 1
    if value is None:
        return 0
    if isinstance(value, list):
        return {}
    return []


def edits(node, path=()):
    """Yields (path, operation, replacement) for every mutation."""
    children = []
    if isinstance(node, dict):
        children = list(node.items())
    elif isinstance(node, list) and node:
        children = [(0, node[0])]
    for key, value in children:
        where = path + (key,)
        if isinstance(node, dict):
            yield where, "drop", DROP
        yield where, "retype", retyped(value)
        if isinstance(value, list) and value:
            yield where, "empty", []
        yield from edits(value, where)


def apply(doc, path, replacement):
    mutant = copy.deepcopy(doc)
    parent = mutant
    for key in path[:-1]:
        parent = parent[key]
    if replacement is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return mutant


def still_valid(doc, path, operation):
    """A sweep axis value retyped to another scalar is a valid document."""
    return (doc.get("schema") == "dohperf-sweep-v1" and operation == "retype"
            and len(path) == 4 and path[0] == "axes" and path[2] == "values")


def accepts(checker, doc, probe):
    with open(probe, "w") as out:
        json.dump(doc, out)
    return subprocess.run([checker, probe], stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def main():
    checker, artifacts = sys.argv[1], sys.argv[2:]
    failures = []
    total = 0
    with tempfile.TemporaryDirectory() as tmp:
        probe = os.path.join(tmp, "mutant.json")
        for artifact in artifacts:
            with open(artifact) as f:
                doc = json.load(f)
            name = os.path.basename(artifact)
            if not accepts(checker, doc, probe):
                failures.append(f"{name}: the valid artifact is rejected")
            for path, operation, replacement in edits(doc):
                total += 1
                expected = still_valid(doc, path, operation)
                mutant = apply(doc, path, replacement)
                if accepts(checker, mutant, probe) != expected:
                    verdict = "rejected" if expected else "accepted"
                    label = ".".join(str(p) for p in path)
                    failures.append(f"{name}: {operation} {label} {verdict}")
    for failure in failures:
        print(failure)
    print(f"{total} mutants over {len(artifacts)} artifacts, "
          f"{len(failures)} wrong verdict(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
