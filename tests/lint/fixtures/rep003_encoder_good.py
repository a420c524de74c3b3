"""REP003 fixture: the stable-order streaming-encoder patterns."""


def encode_rows(columns):
    return [columns[key] for key in sorted(columns)]


def _encode_list(rows):
    for kind in sorted(set(rows)):
        yield kind


def canonical_chunks(sections):
    for name, chunk in sorted(sections.items()):
        yield name + chunk


def event_columns(layouts, groups):
    # First-seen order kept in a list: deterministic, no view iteration.
    return [groups[layout] for layout in layouts]


def summarize_columns(columns):
    # Not an encoder name: view iteration is fine here.
    return sum(len(column) for column in columns.values())
