#!/usr/bin/env python3
"""Validate `gaze_campaign describe --json` output.

Parses the registry listing and asserts its contract: every
registered scheme has a non-empty `canonical` spelling, a numeric
non-negative `storage_kib`, and non-empty documentation. Optionally
asserts that specific schemes are present at all (--require).

With --specs=GLOB, every registered scheme and every option it
declares must also be selected by the prefetcher axis of some
campaign spec the glob matches, or be on ALLOWLIST with the paper
section that uses it. A scheme or option no figure turns is parked
code, and the check names each one.

    registry_check.py [--require=name,name,...] [--specs=GLOB] registry.json
    gaze_campaign describe --json | registry_check.py --require=gaze -
"""

import argparse
import glob
import json
import sys

# Registry entries no figure spec selects, each with the paper section
# that needs it ("scheme" or "scheme:option").
ALLOWLIST = {
    "vberti:oracle": "§IV-B3, the oracle duplicate-filter study",
}


def fail(msg):
    print("registry_check: %s" % msg, file=sys.stderr)
    return 1


def selected_entries(paths, aliases):
    """The "scheme" and "scheme:option" entries the specs' prefetcher
    axes select, with aliases resolved to the primary name."""
    used = set()
    for path in paths:
        with open(path, encoding="utf-8") as f:
            spec = json.load(f)
        for text in spec.get("prefetchers", []):
            name, *tokens = text.split(":")
            name = aliases.get(name, name)
            used.add(name)
            for tok in tokens:
                used.add("%s:%s" % (name, tok.split("=")[0]))
    return used


def check_parked(schemes, spec_glob):
    paths = sorted(glob.glob(spec_glob))
    if not paths:
        return fail("--specs=%s matched no files" % spec_glob)
    aliases = {a: e["name"] for e in schemes for a in e.get("aliases", [])}
    try:
        used = selected_entries(paths, aliases)
    except (OSError, ValueError) as err:
        return fail("cannot read specs: %s" % err)
    parked = []
    for entry in schemes:
        keys = [entry["name"]] + ["%s:%s" % (entry["name"], o["name"])
                                  for o in entry.get("options", [])]
        parked += [k for k in keys if k not in used and k not in ALLOWLIST]
    if parked:
        return fail("%d parked (selected by no spec matching %s, not "
                    "allowlisted): %s"
                    % (len(parked), spec_glob, ", ".join(parked)))
    print("registry_check: every scheme and option is selected by one "
          "of %d specs or allowlisted (%s)"
          % (len(paths), ", ".join(sorted(ALLOWLIST))))
    return 0


def check(doc, require, spec_glob):
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
    if spec_glob:
        return check_parked(schemes, spec_glob)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="validate gaze_campaign describe --json output")
    parser.add_argument("--require", default="",
                        help="comma-separated scheme names that must "
                        "be registered")
    parser.add_argument("--specs", default=None, metavar="GLOB",
                        help="campaign specs whose prefetcher axes must "
                        "select every scheme and option")
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
    return check(doc, require, args.specs)


if __name__ == "__main__":
    sys.exit(main())
