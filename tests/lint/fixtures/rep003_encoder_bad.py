"""REP003 fixture: order-unstable iteration in streaming-encoder paths."""


def encode_rows(columns):
    return [column for column in columns.values()]  # line 5: view


def _encode_list(rows):
    for kind in set(rows):  # line 9: private encoder, set iteration
        yield kind


def canonical_chunks(sections):
    for name, chunk in sections.items():  # line 14: unsorted items()
        yield name + chunk


def event_columns(details):
    return [key for key in details.keys()]  # line 19: keys() view
