"""Seeded request lines and the open-loop client for serve_open_loop.

The request list depends only on (seed, count, seconds, mix): the same
seed gives byte-identical lines.  The client sends each line when it is
due, from one thread, and a second thread reads the responses."""

import json
import random
import threading
import time

HEAVY_MODELS = [("sir", 2), ("sir3", 3), ("sis", 1), ("bike", 1), ("cholera", 3)]
HEAVY_PAIRS = [(m, c) for m, dim in HEAVY_MODELS for c in range(dim)]
# (model, horizon) of the light hulls, which take tens of ms; the seed
# moves each horizon by up to 2%.  The daemon's hull op takes no clip
# box, and its hull on sir3 turns NaN near horizon 1.1 (answered as
# bad_request "Interval.make: NaN").  Before that its width grows about
# fivefold from horizon 0.5 to 0.8, so sir3 runs at 0.5, where a seed
# moves its certificate width by a few percent.
LIGHT = [("sir3", 0.5), ("sir", 0.75), ("sis", 0.75), ("bike", 0.75)]
MALFORMED = [
    '{"id":%d,"op":"bounds","model":"sir","coord":1',
    '{"id":%d,"op":"bounds","model":"sri","coord":0}',
    '{"id":%d,"op":"bounds","model":"sir","coord":9}',
    '{"id":%d,"op":"bounds","model":"sir","coord":0,"horizon":-1}',
    '{"id":%d,"op":"frobnicate","model":"sir"}',
]


def _line(i, body):
    return json.dumps(dict(id=i, **body), separators=(",", ":"))


def _heavy(model, coord, horizon):
    return {"op": "bounds", "model": model, "coord": coord, "horizon": horizon, "steps": 100}


def _kinds(rng, count, mix):
    """Exactly round(share * count) lines of each kind, in seeded order."""
    names = sorted(mix)
    counts = {k: int(round(mix[k] * count)) for k in names}
    counts["repeat"] += count - sum(counts.values())
    kinds = [k for k in names for _ in range(counts[k])]
    rng.shuffle(kinds)
    return kinds


def make_requests(seed, count, seconds, mix, repeat_after_s):
    """The schedule: a list of dicts with due (s from start), line, kind,
    expect ("ok" or an error kind) and key (content key of analysis
    requests, shared by a repeat and its original)."""
    rng = random.Random(seed)
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    # heavy requests cycle through every (model, coordinate) pair in a
    # seeded order, light ones through the light models, so the cost mix
    # hardly depends on the seed
    pairs = list(HEAVY_PAIRS)
    rng.shuffle(pairs)
    n_light = 0
    out = []
    cold = []  # (due, body) of cold heavy requests, for repeats
    kinds = _kinds(rng, count, mix)
    for i, due in enumerate(dues):
        eligible = [b for d, b in cold if d <= due - repeat_after_s]
        if kinds[i] == "repeat" and not eligible:
            # too early for a repeat: trade places with the next other
            # kind, which keeps the mix exact
            j = next((j for j in range(i + 1, count) if kinds[j] != "repeat"), None)
            if j is None:
                kinds[i] = "light"
            else:
                kinds[i], kinds[j] = kinds[j], kinds[i]
        kind = kinds[i]
        if kind == "repeat":
            body = rng.choice(eligible)
        elif kind == "heavy":
            body = _heavy(*pairs[len(cold) % len(pairs)], round(rng.uniform(1.9, 2.1), 6))
        elif kind == "light":
            model, horizon = LIGHT[n_light % len(LIGHT)]
            body = {"op": "hull", "model": model,
                    "horizon": round(horizon * rng.uniform(0.98, 1.02), 6), "dt": 0.05}
            n_light += 1
        elif kind == "ping":
            body = {"op": "ping"}
        elif kind == "deadline":
            body = {"op": "bounds", "model": "sir", "coord": 1,
                    "horizon": round(rng.uniform(1.9, 2.1), 6), "steps": 100,
                    "deadline_ms": 1, "cache": False}
        elif kind == "malformed":
            out.append({"due": due, "line": rng.choice(MALFORMED) % i,
                        "kind": kind, "expect": "bad_request", "key": None})
            continue
        else:
            raise ValueError("unknown request kind " + kind)
        if kind == "heavy":
            # repeats re-send heavy bounds only: their hits render payloads
            # of one size, so the hit latencies form one cluster
            cold.append((due, body))
        analysis = body["op"] != "ping" and kind != "deadline"
        out.append({
            "due": due,
            "line": _line(i, body),
            "kind": kind,
            "expect": "deadline_exceeded" if kind == "deadline" else "ok",
            "key": json.dumps(body, sort_keys=True) if analysis else None,
        })
    return out


def make_burst(seed, rounds, first_id):
    """Rounds of uncached heavy bounds at the daemon's default horizon,
    one per (model, coordinate) pair each, in seeded order: list of
    rounds, each a list of (line, key).  Every seed asks for the same
    work."""
    rng = random.Random("burst-%d" % seed)
    out = []
    i = first_id
    for _ in range(rounds):
        pairs = list(HEAVY_PAIRS)
        rng.shuffle(pairs)
        batch = []
        for model, coord in pairs:
            body = dict(_heavy(model, coord, 2.0), cache=False)
            batch.append((_line(i, body), json.dumps(body, sort_keys=True)))
            i += 1
        out.append(batch)
    return out


def read_vmhwm_mb(pid):
    try:
        with open("/proc/%d/status" % pid) as f:
            for l in f:
                if l.startswith("VmHWM:"):
                    return int(l.split()[1]) / 1024.0
    except OSError:
        pass
    return float("nan")


class Client:
    """One stdio connection to a umf_serve child.  Responses come back in
    request order, so the k-th response line answers the k-th line sent
    (malformed lines may carry no readable id)."""

    def __init__(self, proc):
        self.proc = proc
        self.recv = []  # (perf_counter, raw line)
        self.cv = threading.Condition()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for raw in self.proc.stdout:
            t = time.perf_counter()
            with self.cv:
                self.recv.append((t, raw.decode().rstrip("\n")))
                self.cv.notify_all()
        with self.cv:
            self.cv.notify_all()

    def send(self, *lines):
        """Send the lines in one write, so the daemon reads them together."""
        self.proc.stdin.write("".join(l + "\n" for l in lines).encode())
        self.proc.stdin.flush()

    def wait_for(self, n, timeout):
        deadline = time.perf_counter() + timeout
        with self.cv:
            while len(self.recv) < n:
                left = deadline - time.perf_counter()
                if left <= 0 or self.proc.poll() is not None:
                    break
                self.cv.wait(left)
            return len(self.recv) >= n

    def close(self):
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except Exception:
            self.proc.kill()
            self.proc.wait()
        self.reader.join(timeout=5)


def open_loop(client, schedule, t0):
    """Send each line at t0 + its due time; returns the send times.  A
    line whose due time has passed is sent at once, so lateness shows how
    far the generator fell behind."""
    sent = []
    for r in schedule:
        wait = t0 + r["due"] - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        sent.append(time.perf_counter())
        client.send(r["line"])
    return sent
