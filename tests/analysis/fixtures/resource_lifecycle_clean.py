"""Fixture: every opened resource is released, managed, or transferred."""


def with_managed(path):
    with open(path) as fh:
        return fh.read()


def finally_closed(path):
    fh = open(path)
    try:
        return fh.read()
    finally:
        fh.close()


def ownership_returned(path):
    fh = open(path)
    return fh


def handed_off(sink, path):
    fh = open(path)
    sink.adopt(fh)


def released_pin(db):
    snap = db.open_snapshot()
    try:
        return snap.lsn
    finally:
        snap.release()


def streaming(path):
    fh = open(path)
    yield fh.read()
    fh.close()
