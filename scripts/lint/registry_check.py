#!/usr/bin/env python3
"""Validate `gaze_campaign describe --json` output.

Parses the registry listing and asserts its contract: every
registered scheme has a non-empty `canonical` spelling, a numeric
non-negative `storage_kib`, and non-empty documentation. Optionally
asserts that specific schemes are present at all (--require).

    registry_check.py [--require=name,name,...] registry.json
    gaze_campaign describe --json | registry_check.py --require=gaze -
"""

import argparse
import json
import sys


def fail(msg):
    print("registry_check: %s" % msg, file=sys.stderr)
    return 1


def check(doc, require):
    if not isinstance(doc, dict) or "prefetchers" not in doc:
        return fail("top level must be an object with a "
                    "'prefetchers' array")
    schemes = doc["prefetchers"]
    if not isinstance(schemes, list) or not schemes:
        return fail("'prefetchers' must be a non-empty array")

    names = set()
    for i, entry in enumerate(schemes):
        if not isinstance(entry, dict):
            return fail("prefetchers[%d] is not an object" % i)
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            return fail("prefetchers[%d] has no name" % i)
        if name in names:
            return fail("scheme '%s' listed twice" % name)
        names.add(name)

        canonical = entry.get("canonical")
        if not isinstance(canonical, str) or not canonical:
            return fail("scheme '%s': missing/empty 'canonical'" % name)
        if not canonical.startswith(name):
            return fail("scheme '%s': canonical '%s' does not start "
                        "with the scheme name" % (name, canonical))

        storage = entry.get("storage_kib")
        if not isinstance(storage, (int, float)) \
                or isinstance(storage, bool) or storage < 0:
            return fail("scheme '%s': 'storage_kib' must be a "
                        "non-negative number (got %r)" % (name, storage))

        doc_text = entry.get("doc")
        if not isinstance(doc_text, str) or not doc_text.strip():
            return fail("scheme '%s': missing/empty 'doc'" % name)

    missing = [r for r in require if r not in names]
    if missing:
        return fail("required scheme(s) absent: %s (have: %s)"
                    % (", ".join(missing), ", ".join(sorted(names))))

    print("registry_check: %d scheme%s OK%s"
          % (len(names), "" if len(names) == 1 else "s",
             " (required: %s)" % ",".join(require) if require else ""))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="validate gaze_campaign describe --json output")
    parser.add_argument("--require", default="",
                        help="comma-separated scheme names that must "
                        "be registered")
    parser.add_argument("path", help="registry JSON file, or - for stdin")
    args = parser.parse_args(argv)

    try:
        if args.path == "-":
            doc = json.load(sys.stdin)
        else:
            with open(args.path, encoding="utf-8") as f:
                doc = json.load(f)
    except (OSError, ValueError) as err:
        return fail("cannot read %s: %s" % (args.path, err))

    require = [r for r in args.require.split(",") if r]
    return check(doc, require)


if __name__ == "__main__":
    sys.exit(main())
