"""A run directory: the files `masinfo run` writes and `masinfo analyze` reads.

`<workflow>_<layer>_N<n>.jsonl` holds the transcripts of one agent count
(harness.TranscriptStore), `embeddings.jsonl` one {"id", "n", "vector"} row
per call, named by Transcript.embedding_ids() and the transcript's agent
count, and `manifest.json` the config
hash and the run's status; `embeddings.cache` is analyze's binary copy of the
rows, keyed by the JSONL's stat stamp alone and written only when that stamp
can be trusted (load_store_embeddings).  RunStore is the one owner of these
files: `run` calls its begin(), append() for each task as it finishes,
finish() and close(), and `analyze` its transcripts(), which reads no other
file of the directory, such as a dataset kept there, and rows(), the one
lookup that matches each call of a transcript to its row.
"""

import collections
import contextlib
import hashlib
import json
import mmap
import os
import re
import stat
import sys
import tempfile
import time

import numpy as np

from masinfo import spectral
from masinfo.harness import TranscriptStore

EMBEDDINGS, MANIFEST = "embeddings.jsonl", "manifest.json"
# The store file of one agent count, `<workflow>_<layer>_N<n>.jsonl`: begin()
# names each by _store_file, and transcripts() reads no file it does not match.
_STORE_FILE = re.compile(r"[a-z]+_L[0-9]+_N[0-9]+\.jsonl")


def _store_file(workflow, layer, num_agents):
    return f"{workflow}_{layer}_N{num_agents}.jsonl"


class RunStore:
    def __init__(self, output_dir):
        self.output_dir = output_dir
        self._stores, self._rows, self._manifest = {}, None, None

    def _path(self, name):
        return os.path.join(self.output_dir, name)

    def begin(self, cfg, specs):
        """Start or resume the run of config `cfg`; return its resume set,
        {spec: ids of the tasks in its store}.  Equal specs share a store.

        The stores are read first, so a malformed line stops the run before
        any call.  ValueError refuses a manifest that is no JSON object or
        names another config, and this config's files without a manifest,
        whose config is unknown.  Then the manifest is written with status
        "running", so a rerun after a crash still meets the config check."""
        self._stores = {spec: TranscriptStore(self._path(
            _store_file(cfg["workflow"], cfg["layer"], spec.num_agents))) for spec in specs}
        done = {spec: {t.task_id for t in store} for spec, store in self._stores.items()}
        manifest = self._path(MANIFEST)
        try:
            with open(manifest, encoding="utf-8") as fh:
                old = json.load(fh)
            if not isinstance(old, dict):
                raise ValueError
        except FileNotFoundError:
            old = None
        except ValueError:  # torn, not JSON at all, or no object
            raise ValueError(f"{manifest} is not a JSON object") from None
        chash = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()
        files = [s.path for s in self._stores.values()]
        if old is None and any(map(os.path.exists, files + [self._path(EMBEDDINGS)])):
            raise ValueError(f"{self.output_dir} holds transcripts or embeddings but no "
                             f"{MANIFEST}; resume refused")
        if old is not None and old.get("config_hash") != chash:
            raise ValueError("output_dir holds a run with a different config; resume refused")
        os.makedirs(self.output_dir, exist_ok=True)
        self._manifest = {"schema": 1, "config_hash": chash, "started": time.time(),
                          "files": [os.path.basename(f) for f in files],
                          **{k: cfg[k] for k in ("seed", "workflow", "layer", "n_agents_list")}}
        self._write_manifest("running")
        return done

    def _write_manifest(self, status):
        # a manifest without status is done.  Written aside and renamed over
        # the old one, so a crash mid-write leaves a whole manifest.
        path = self._path(MANIFEST)
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump({**self._manifest, "status": status}, fh, indent=2, sort_keys=True)
        os.replace(path + ".tmp", path)

    def append(self, spec, transcript, vectors):
        """Write a task's rows, if it has `vectors`, then its transcript.

        A crash between the two leaves the task undone, and its rerun's rows
        win.  Each row is written as it is made, so a task's rows are never
        all held, and flushed once, after the last.  embeddings.jsonl is
        opened on the first vectors, so a run without any writes no file.
        """
        if vectors:
            if self._rows is None:
                self._rows = open(self._path(EMBEDDINGS), "ab")
            self._rows.writelines(embedding_rows(transcript.embedding_ids(), vectors,
                                                 transcript.n_agents))
            self._rows.flush()
        self._stores[spec].append(transcript)

    def finish(self):
        self._manifest["finished"] = time.time()
        self._write_manifest("done")

    def close(self):
        for f in filter(None, [self._rows, *self._stores.values()]):
            f.close()

    def transcripts(self):
        """Every transcript of the directory, store file by store file in name
        order; other files, as a dataset kept there, are not read."""
        return [t for name in sorted(os.listdir(self.output_dir))
                if _STORE_FILE.fullmatch(name) for t in TranscriptStore(self._path(name))]

    def has_rows(self):
        return os.path.exists(self._path(EMBEDDINGS))

    def rows(self):
        """This store's rows_of(t) for analysis.TaskScorer.score: the rows of
        embeddings.jsonl (load_store_embeddings) and the index in them of each
        of `t`'s calls, by their keys (t.n_agents, id) for the ids of
        Transcript.embedding_ids(), so each N of the store reads its own rows.
        A transcript without such rows, as in stores written before rows
        named their N, is looked up by its ids alone.  KeyError for a call
        without a row, so for all without the file.  A repeated key prints
        one warning and keeps its last row."""
        path = self._path(EMBEDDINGS)
        index, rows = {}, None
        if os.path.exists(path):
            keys, rows = load_store_embeddings(path)
            index = dict(zip(keys, range(len(keys))))
            if len(index) < len(keys):
                # ids without an N repeat across the N of one output_dir, and any
                # key after a crashed task's rerun
                repeated = next(k for k, c in collections.Counter(keys).items() if c > 1)
                print(f"warning: {path} repeats embedding id {repeated!r}; "
                      "each repeated id keeps its last row", file=sys.stderr)

        def rows_of(t):
            # a stored transcript has at least one call, so an empty index refuses each
            ids = t.embedding_ids()
            try:
                return rows, [index[t.n_agents, i] for i in ids]
            except KeyError:  # rows that name no N
                return rows, [index[i] for i in ids]

        return rows_of


def _vector_json(vector):
    """`json.dumps(vector).encode()`, byte for byte, about 6x faster.

    `vector` is a list of finite floats and ints.  orjson prints the same
    shortest digits as `float.__repr__` and differs only in layout: it writes
    magnitudes in [1e-5, 1e-4) in fixed notation (`0.00001` for `1e-05`) and
    exponents without sign or padding (`1.5e-7`, `1e16` for `1.5e-07`,
    `1e+16`).  Only the tokens holding `e` or `0.0000` are re-rendered with
    `repr`; a regex pass over every token is slower than `json.dumps`.
    """
    # imported here, so the toolkit commands never load it
    import orjson

    try:
        raw = orjson.dumps(vector)
    except orjson.JSONEncodeError:  # an int beyond 64 bits
        return json.dumps(vector).encode()
    spans = {}  # start -> end of each token to re-render
    for needle in (b"e", b"0.0000"):
        k = raw.find(needle)
        while k != -1:
            # raw[0] is "[", so a first token starts at 1
            start = max(raw.rfind(b",", 0, k), 0) + 1
            end = raw.find(b",", k)
            if end == -1:
                end = len(raw) - 1
            spans[start] = end
            k = raw.find(needle, end)
    if spans:
        parts, done = [], 0
        for start in sorted(spans):
            parts += [raw[done:start], repr(float(raw[start:spans[start]])).encode()]
            done = spans[start]
        parts.append(raw[done:])
        raw = b"".join(parts)
    return raw.replace(b",", b", ")


def embedding_rows(row_ids, vectors, n):
    """Yield `json.dumps({"id": row_id, "n": n, "vector": vector}).encode() + b"\\n"`
    for each pair of a string id and its vector, byte for byte; `n` is the
    integer agent count of the rows' transcript.

    The rows are made one at a time, so a caller that writes each as it comes
    holds one row, not the whole list of them.  A vector object that repeats
    (fetch_embeddings gives repeated texts one shared vector) is encoded once
    and its bytes reused.
    """
    encoded = {}  # id(vector) -> (vector, its JSON); holding the vector keeps its id unique
    quote = json.encoder.encode_basestring_ascii  # what json.dumps runs for a str
    for row_id, v in zip(row_ids, vectors):
        hit = encoded.get(id(v))
        if hit is None:
            hit = encoded[id(v)] = (v, _vector_json(v))
        yield b'{"id": %s, "n": %d, "vector": %s}\n' % (quote(row_id).encode(), n, hit[1])


# Names the cache layout and the decoder that filled it.  Bump it whenever
# the layout changes or load_embeddings_jsonl accepts, rejects or returns
# anything differently, so that caches an older version wrote are read as
# misses.  Format 6 keys the rows by the JSONL's stat stamp alone; format 7
# holds each row's key, (n, id) for a row that names its N and its id otherwise.
_CACHE_FORMAT = 7
_READ_CHUNK = 1 << 18
# A stat stamp proves a file unchanged only where ctime is the inode's change
# time, which no user-space call can set; on Windows it is the creation time.
_STAMPS = os.name == "posix"


def _stamp(st):
    """The stat fields a write to the file changes: device, inode, size, mtime, ctime."""
    return [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]


def load_store_embeddings(path):
    """load_embeddings_jsonl(path, keys=True), through a binary copy of its
    rows beside it.

    `<name>.cache` holds one JSON line `[format, stamp, width, keys]`, padded
    with spaces to a multiple of 8 bytes, then the rows as raw little-endian
    float64: _CACHE_FORMAT and the _stamp of the JSONL the rows were decoded
    from.  A cache whose stamp equals the JSONL's stat now is a hit.

    Whether a stamp can be trusted is decided once, when the cache is
    written: a miss decodes the JSONL and writes the cache only where _STAMPS
    holds, the JSONL's stamp held still through the decode, and its mtime and
    ctime are older than the mtime of the cache's temp file, made before the
    read on the store's own filesystem (_NewCache), since a write in the same
    tick could leave the stamp unchanged (git's "racy git" rule).  Otherwise
    no cache is written, and the next call decodes again.

    _read_cache's rows are the cache's own pages, mapped read-only and left
    unread, so a caller that copies rows out and then calls release_pages
    keeps only the pages it is reading resident; a cache is only ever
    replaced by a rename, which leaves mapped rows as they were.  The JSONL
    stays the only source of truth: an unreadable cache counts as absent,
    and an unwritable one is left out.
    """
    cache = os.path.splitext(path)[0] + ".cache"
    with open(path, "rb") as src:
        st = os.fstat(src.fileno())
        stamp = _stamp(st)
        cached = _read_cache(cache, stamp)
        if cached is not None:
            return cached
        with _NewCache(cache) as new:
            try:
                keys, vectors = spectral.load_embeddings_jsonl(src, keys=True)
            except ValueError as exc:  # a bad row or an empty file, named by its store
                raise ValueError(f"{path}: {exc}") from None
            if (_STAMPS and new.reference is not None and max(stamp[3:]) < new.reference
                    and stamp == _stamp(os.fstat(src.fileno()))):
                new.write([_CACHE_FORMAT, stamp, vectors.shape[1], keys], vectors,
                          stat.S_IMODE(st.st_mode))
    return keys, vectors


def _read_cache(cache, stamp):
    """(keys, rows) of `cache`, or None unless it is of the current format,
    was decoded from the JSONL of stat stamp `stamp` and holds exactly
    len(keys) * width finite floats; the rows are the file's pages, mapped
    read-only and not yet read through the mapping.  JSON holds a key (n, id)
    as a list, which is made a tuple again."""
    try:
        with open(cache, "rb") as fh:
            fmt, cached_stamp, width, keys = json.loads(fh.readline())
            offset = fh.tell()
            if (fmt == _CACHE_FORMAT and cached_stamp == stamp and isinstance(keys, list)
                    and type(width) is int):
                rows = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                # exactly len(keys) * width floats, and nothing after them
                count = len(keys) * width
                if len(rows) - offset == count * 8 and _all_finite(fh, count):
                    vectors = np.frombuffer(rows, "<f8", count, offset)
                    keys = [tuple(k) if type(k) is list else k for k in keys]
                    return keys, vectors.reshape(len(keys), width)
    except (OSError, ValueError, TypeError):  # a missing, torn or foreign cache
        pass
    return None


def _all_finite(fh, count):
    """Whether the next `count` little-endian float64s of the binary file `fh`
    are all finite.  They are read through one buffer of at most _READ_CHUNK
    bytes, not through the mapping of the same bytes, so a hit leaves the
    mapped rows unread and none of their pages resident."""
    buf = np.empty(max(min(count, _READ_CHUNK // 8), 1), "<f8")
    while count:
        chunk = buf[:count]
        if fh.readinto(chunk) != chunk.nbytes or not np.isfinite(chunk).all():
            return False
        count -= len(chunk)
    return True


def release_pages(rows):
    """Drop the resident pages of the cache mapping that the array `rows`
    views, once its rows have been copied out.  The kernel reads a dropped
    page back from the file on the next access, so the rows stay as they
    are.  A no-op for an array that views no mapping, as decoded rows, and
    where mmap offers no MADV_DONTNEED."""
    # numpy 2 puts a memoryview between the array and the mapping; 1.24 may not
    base = rows
    while isinstance(base, (np.ndarray, memoryview)):
        base = base.base if isinstance(base, np.ndarray) else base.obj
    if isinstance(base, mmap.mmap) and hasattr(mmap, "MADV_DONTNEED"):
        # advice only: Linux refuses it on locked pages (mlockall), which then stay
        with contextlib.suppress(OSError):
            base.madvise(mmap.MADV_DONTNEED)


class _NewCache:
    """The next `cache`, begun before the JSONL is read.

    Entering makes its temp file beside `cache`; its mtime, taken then on the
    store's own filesystem, is the reference a stamp must be older than, and
    no clock is read, since a network filesystem's server stamps the file.
    A store that cannot be written gets no temp file and no reference,
    write() gives up on any OSError, and the temp file never outlives the
    `with` block.
    """

    def __init__(self, cache):
        self.cache, self.fd, self.tmp, self.reference = cache, None, None, None

    def __enter__(self):
        with contextlib.suppress(OSError):
            self.fd, self.tmp = tempfile.mkstemp(prefix=f".{os.path.basename(self.cache)}.",
                                                 suffix=".tmp",
                                                 dir=os.path.dirname(self.cache) or ".")
            self.reference = os.fstat(self.fd).st_mtime_ns
        return self

    def write(self, header, vectors, mode):
        """Write `header` and `vectors` as the cache, with permission bits `mode`."""
        fd, self.fd = self.fd, None
        try:
            with os.fdopen(fd, "wb") as fh:
                # mkstemp makes 0600 files; whoever may read the rows may read the copy
                os.chmod(self.tmp, mode)
                # json escapes every control character, so the header is one
                # line; spaces pad it to whole floats, so the mapped rows are aligned
                line = json.dumps(header).encode()
                fh.write(line + b" " * (-(len(line) + 1) % 8) + b"\n")
                fh.write(np.ascontiguousarray(vectors, "<f8").data)
            os.replace(self.tmp, self.cache)
        except OSError:
            pass

    def __exit__(self, *exc):
        if self.fd is not None:
            os.close(self.fd)
        if self.tmp is not None:
            # gone after the rename; otherwise the write failed, was
            # interrupted or never came
            with contextlib.suppress(OSError):
                os.unlink(self.tmp)
