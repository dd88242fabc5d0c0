"""Cyclic garbage of a run must not grow with the corpus.

The program entry (``cli.run``) switches the cyclic collector off, so a
reference cycle made per row or per request would stay in memory until
exit. Each case runs ``main`` in a child with the collector off, on one
copy of the fixture corpus and on four, then counts what
``gc.collect()`` finds unreachable: the two counts must be equal. Each copy
gives every advert a new ``vacancy_id``, title and description, so that
each request is distinct and none is answered by another copy's cache
entry. Besides the plain mock provider, one refuses each chat request and
each embedding chunk once (the retry path), one sets ``waits_on_io`` (the
thread pool), and one is the remote provider (``HttpProvider``) talking to
an HTTP server on loopback that answers as the mock does, after refusing
each chat request with HTTP 429 and each embedding request with HTTP 500
once.
"""

import json
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from conftest import DATA_DIR, child_env, write_config
from taskshift.gateway import MockProvider
from taskshift.gateway.providers import StructuredRequest, synthesize_payload
from taskshift.gateway.schema import FieldSpec, Schema

PROBE = """
import gc, json, sys
from taskshift.cli import main
from taskshift.errors import ProviderError
from taskshift.gateway import MockProvider

mode, config = sys.argv[1:]
refused = set()
if mode == "retry":
    complete, embed = MockProvider.complete, MockProvider.embed

    def refuse_once(key):
        if key not in refused:
            refused.add(key)
            raise ProviderError("refused once")

    def complete_second_time(self, request):
        refuse_once(request.request_id)
        return complete(self, request)

    def embed_second_time(self, texts):
        refuse_once(tuple(texts))
        return embed(self, texts)

    MockProvider.complete, MockProvider.embed = complete_second_time, embed_second_time
elif mode == "threads":
    MockProvider.waits_on_io = True
gc.collect()
gc.disable()
status = main(["all", "--config", config])
unreachable = gc.collect()
pooled = "concurrent.futures.thread" in sys.modules
print(json.dumps({"status": status, "unreachable": unreachable, "refused": len(refused), "pooled": pooled}))
"""

# what HttpProvider appends to each user prompt, before the schema's canonical text
SCHEMA_MARKER = "\n\nRespond with a single JSON object conforming to: "
# what BatchManager appends to the prompt of a nudged retry
NUDGE_MARKER = "\n(attempt "
EMBED_DIMENSION = 32


def field_spec(spec: dict) -> FieldSpec:
    return FieldSpec(
        name=spec["name"],
        kind=spec["kind"],
        required=spec["required"],
        minimum=spec.get("minimum"),
        maximum=spec.get("maximum"),
        choices=tuple(spec.get("choices", ())),
        item=field_spec(spec["item"]) if "item" in spec else None,
        fields=tuple(map(field_spec, spec.get("fields", ()))),
    )


class MockOverHttp(BaseHTTPRequestHandler):
    """Chat completions and embeddings answered as ``MockProvider`` answers them,
    each distinct request refused once: chat with 429, embeddings with 500."""

    mock = MockProvider(dimension=EMBED_DIMENSION)
    seen: set = set()
    refused = 0
    lock = threading.Lock()

    def do_POST(self):
        data = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        chat = self.path.endswith("/chat/completions")
        if chat:
            system, user = (message["content"] for message in data["messages"])
            prompt, _, canonical = user.rpartition(SCHEMA_MARKER)
            # a retry may carry a nudge after the prompt; it is the same request
            request = (system, prompt.partition(NUDGE_MARKER)[0])
        else:
            request = tuple(data["input"])
        with self.lock:
            first = request not in self.seen
            self.seen.add(request)
            type(self).refused += first
        if first:
            self.send_error(429 if chat else 500)
            return
        if chat:
            schema = json.loads(canonical)
            schema = Schema(schema["name"], tuple(map(field_spec, schema["fields"])))
            payload = synthesize_payload(StructuredRequest("", system, prompt, schema))
            reply = {"choices": [{"message": {"content": json.dumps(payload, sort_keys=True)}}]}
        else:
            vectors = self.mock.embed(data["input"])
            reply = {"data": [{"embedding": vector} for vector in vectors.tolist()]}
        encoded = json.dumps(reply).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def log_message(self, format, *args):
        pass


@pytest.fixture(scope="module")
def loopback_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), MockOverHttp)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join()
    server.server_close()


def copied_corpus(directory: Path, copies: int) -> Path:
    """The fixture corpus ``copies`` times over, each copy's adverts and texts distinct."""
    lines = (DATA_DIR / "corpus.jsonl").read_text("utf-8").splitlines()
    rows = [json.loads(line) for line in lines if line.strip()]
    copied = [
        json.dumps(
            {
                **row,
                "vacancy_id": f"{row['vacancy_id']}-{copy}",
                "title": f"{row['title']} {copy}",
                # a line the mock's task rules skip: the tasks stay, the request bytes change
                "job_description": f"{row['job_description']}\nCopy {copy}.",
            }
        )
        for copy in range(copies)
        for row in rows
    ]
    path = directory / "corpus.jsonl"
    path.write_text("\n".join(copied) + "\n", "utf-8")
    return path


def probe(directory: Path, mode: str, copies: int, **settings) -> dict:
    directory.mkdir()
    corpus = copied_corpus(directory, copies)
    config = write_config(directory, corpus_path=str(corpus), **settings)
    result = subprocess.run(
        [sys.executable, "-c", PROBE, mode, str(config)],
        env=child_env(TASKSHIFT_API_KEY="loopback"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    found = json.loads(result.stdout.splitlines()[-1])
    assert found["status"] == 0, result.stderr
    return found


@pytest.mark.parametrize("mode", ["plain", "retry", "threads"])
def test_cyclic_garbage_does_not_grow_with_the_corpus(tmp_path, mode):
    small = probe(tmp_path / "once", mode, 1)
    large = probe(tmp_path / "four times", mode, 4)
    # the path under test ran, and ran more often on the larger corpus
    assert small["refused"] < large["refused"] if mode == "retry" else large["refused"] == 0
    assert large["pooled"] == (mode == "threads")
    assert large["unreachable"] == small["unreachable"]


def test_remote_provider_garbage_does_not_grow_with_the_corpus(tmp_path, loopback_server):
    host, port = loopback_server.server_address
    remote = {
        "provider": "remote",
        "remote_base_url": f"http://{host}:{port}",
        "remote_model": "loopback",
        "embed_dimension": EMBED_DIMENSION,
    }
    refused = []
    found = []
    for name, copies in (("once", 1), ("four times", 4)):
        # each run starts unrefused: the larger corpus repeats the smaller one's adverts
        MockOverHttp.seen.clear()
        MockOverHttp.refused = 0
        found.append(probe(tmp_path / name, "remote", copies, **remote))
        refused.append(MockOverHttp.refused)
    small, large = found
    # every request went over HTTP, was refused once, and was retried
    assert 0 < refused[0] < refused[1]
    assert large["pooled"]
    assert large["unreachable"] == small["unreachable"]
