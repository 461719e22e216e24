"""Fixture: opened resources that may leak on some path."""


def conditional_close(path, flush):
    fh = open(path)
    data = fh.read()
    if flush:
        fh.close()
    return data


def inline_argument(recover, base):
    return recover(open(base))


def leaked_pin(db):
    snap = db.open_snapshot()
    return snap.lsn


def rebound_before_finally(first, second):
    fh = open(first)
    fh = open(second)
    try:
        return fh.read()
    finally:
        fh.close()


def closed_after_a_raising_call(path):
    fh = open(path)
    data = fh.read()
    fh.close()
    return data


def reopened_in_a_loop(paths):
    for path in paths:
        fh = open(path)
        header = fh.readline()
    fh.close()
    return header
