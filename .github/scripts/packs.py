"""Check and corrupt an artifact store's packs for the CI warm-start smokes.

    python3 packs.py one-pack DIR   fail unless DIR holds exactly one *.pack
                                    and no other file
    python3 packs.py corrupt DIR    flip one payload byte in every record of
                                    every *.pack in DIR

A pack is a plain sequence of records, each laid out little-endian as

    magic "BCA1" | version u16 | kind u16 | key length K u32 |
    payload length P u64 | key (K bytes) | payload (P bytes) | CRC-64 (8 bytes)

A record with an empty payload gets a checksum byte flipped instead, so
every record is corrupted either way.
"""
import pathlib
import struct
import sys

HEADER = struct.Struct("<4sHHIQ")


def records(data, name):
    """Yield (payload offset, payload length, record end) for each record."""
    off = 0
    while off < len(data):
        if off + HEADER.size + 8 > len(data):
            sys.exit(f"{name}: torn record at offset {off}")
        magic, _version, _kind, key_len, pay_len = HEADER.unpack_from(data, off)
        end = off + HEADER.size + key_len + pay_len + 8
        if magic != b"BCA1" or end > len(data):
            sys.exit(f"{name}: no complete record at offset {off}")
        yield off + HEADER.size + key_len, pay_len, end
        off = end


def one_pack(store):
    files = sorted(p.name for p in store.iterdir())
    if len(files) != 1 or not files[0].endswith(".pack"):
        sys.exit(f"store holds {files}, want exactly one *.pack and nothing else")


def corrupt(store):
    flipped = 0
    for path in sorted(store.glob("*.pack")):
        data = bytearray(path.read_bytes())
        for payload, pay_len, end in list(records(data, path.name)):
            data[payload + pay_len // 2 if pay_len else end - 8] ^= 1
            flipped += 1
        path.write_bytes(data)
    if flipped == 0:
        sys.exit("no records to corrupt")
    print(f"flipped one byte in each of {flipped} records")


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in ("one-pack", "corrupt"):
        sys.exit(__doc__)
    {"one-pack": one_pack, "corrupt": corrupt}[sys.argv[1]](pathlib.Path(sys.argv[2]))
