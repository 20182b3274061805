"""Length-prefixed pickle messages between run.py and its workers.

Only bytes written by this benchmark's own processes are unpickled.
"""

import pickle
import struct


def send(stream, obj) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(struct.pack("<Q", len(data)) + data)
    stream.flush()


def receive(stream):
    head = stream.read(8)
    if len(head) < 8:
        raise EOFError("the other end closed the pipe")
    (size,) = struct.unpack("<Q", head)
    return pickle.loads(stream.read(size))
