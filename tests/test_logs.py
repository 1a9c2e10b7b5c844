import csv
import io
import json
import re
from collections import Counter

import numpy as np
import pytest

from mmrca import logs
from mmrca.encoder import CLS_TOKEN, EMPTY_TOKEN, N_RESERVED, EncoderConfig, tokenize
from mmrca.logs import (
    DEFAULT_GOLDEN_SIGNALS,
    WindowTable,
    label_windows,
    mask_message,
    parse_templates,
    read_logs_jsonl,
    window_sequences,
    windows_to_jsonl,
)
from mmrca.panel import ModalityPanel, read_panel_csv, write_panel_csv
from mmrca.simulate import generate_incident, sample_scenario


def records(*triples):
    return [{"ts": ts, "entity": e, "msg": m} for ts, e, m in triples]


def cells(table):
    """(templates, frequencies) of every cell of a WindowTable, in cell order."""
    bounds = zip(table.offsets[:-1], table.offsets[1:])
    return [(table.templates[a:b].tolist(), table.frequencies[a:b].tolist()) for a, b in bounds]


def table_of(windows, n_entities=1):
    """A WindowTable whose cells, entity-major, are the (templates, frequencies[, label])
    tuples of windows."""
    offsets = np.cumsum([0] + [len(w[0]) for w in windows])
    return WindowTable(
        n_entities,
        len(windows) // n_entities,
        offsets,
        [t for w in windows for t in w[0]],
        [f for w in windows for f in w[1]],
        [w[2] if len(w) > 2 else 0.0 for w in windows],
    )


# --- reference implementations: the per-record code the columnar path replaced ---------


ORACLE_PATTERNS = [
    re.compile(r"\b\d{1,3}(?:\.\d{1,3}){3}\b"),
    re.compile(
        r"\b[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}\b"
    ),
    re.compile(r"\b0[xX][0-9a-fA-F]+\b"),
    re.compile(r"\b[0-9a-fA-F]*\d[0-9a-fA-F]*\b"),
]


def oracle_mask(message):
    for pattern in ORACLE_PATTERNS:
        message = pattern.sub("<*>", message)
    return message


def oracle_windows(events, vocabulary, window_size, n_entities, n_windows):
    """The dict-based window_sequences and label_windows: one dict per window."""
    valid_ids = set(range(len(vocabulary)))
    events = sorted(events, key=lambda e: e[0])
    first_seen, counts = {}, {}
    for position, (ts, entity, template_id) in enumerate(events):
        if template_id not in valid_ids:
            raise ValueError(f"template id {template_id} not present in the vocabulary")
        if not 0 <= entity < n_entities:
            raise ValueError(f"entity index {entity} out of range")
        window_index = ts // window_size
        if not 0 <= window_index < n_windows:
            raise ValueError(
                f"log event of entity {entity} at ts {ts} falls outside the grid of "
                f"{n_windows} windows of size {window_size}"
            )
        key = (entity, window_index)
        first_seen.setdefault(key, {}).setdefault(template_id, position)
        counts.setdefault(key, Counter())[template_id] += 1
    flags = {
        template_id: any(s in pattern.lower() for s in DEFAULT_GOLDEN_SIGNALS)
        for template_id, pattern in enumerate(vocabulary)
    }
    windows = []
    for entity in range(n_entities):
        for w in range(n_windows):
            key = (entity, w)
            if key in counts:
                templates = sorted(first_seen[key], key=first_seen[key].get)
                frequencies = [counts[key][t] for t in templates]
                flagged = sum(f for t, f in zip(templates, frequencies) if flags[t])
                label = flagged / sum(frequencies)
            else:
                templates, frequencies, label = [], [], 0.0
            windows.append(
                {"entity": entity, "window_index": w, "templates": templates,
                 "frequencies": frequencies, "label": label}
            )
    return windows


def oracle_jsonl(windows):
    return "\n".join(json.dumps(w, sort_keys=True) for w in windows) + "\n"


def oracle_panel_csv(panel, metric_name):
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["timestamp", "entity", "metric_name", "value"])
    for t in range(panel.n_timesteps):
        for i, name in enumerate(panel.entity_names):
            writer.writerow([t, name, metric_name, repr(float(panel.values[i, t]))])
        writer.writerow([t, "kpi", "kpi", repr(float(panel.values[-1, t]))])
    return buffer.getvalue().encode()


def oracle_read_panel_error(path, metric_name):
    """The message the DictReader-based read_panel_csv raised for path, or None."""
    series, order = {}, []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            entity = row["entity"]
            if entity != "kpi" and row["metric_name"] != metric_name:
                continue
            if entity not in series:
                series[entity] = {}
                if entity != "kpi":
                    order.append(entity)
            t = int(row["timestamp"])
            if t in series[entity]:
                return f"{path} has more than one row for entity {entity!r} at timestamp {t}"
            series[entity][t] = float(row["value"])
    timestamps = sorted(set().union(*series.values()))
    for name in order + ["kpi"]:
        for t in timestamps:
            if t not in series[name]:
                return f"{path} has no row for entity {name!r} at timestamp {t}"
    return None


WORDS = ["alpha", "beta", "GET", "took", "ms", "svc-3", "x", "Xray", "box", "exit", "a.b",
         "error", "timeout", "failed", "peer", "cafe", "deadbeef", "1e5", "v1.2", "--", "0x"]


def random_message(rng):
    parts = []
    for _ in range(rng.integers(1, 7)):
        kind = rng.integers(0, 6)
        if kind == 0:
            parts.append(".".join(str(rng.integers(0, 300)) for _ in range(rng.integers(2, 5))))
        elif kind == 1:
            parts.append("-".join(f"{rng.integers(0, 16**k):0{k}x}" for k in (8, 4, 4, 4, 12)))
        elif kind == 2:
            parts.append(f"0{'xX'[rng.integers(0, 2)]}{rng.integers(0, 2**20):x}")
        elif kind == 3:
            parts.append(str(rng.integers(0, 10**6)))
        else:
            parts.append(WORDS[rng.integers(0, len(WORDS))])
    return " ".join(parts)


def random_incident(seed):
    """Records out of ts order with ties, and a grid larger than the events fill."""
    rng = np.random.default_rng(seed)
    n_entities, window_size = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    n_windows = int(rng.integers(1, 8))
    n = int(rng.integers(0, 60))
    ts = rng.integers(0, n_windows * window_size, n)  # few values: many ties
    entities = rng.integers(0, max(n_entities - 1, 1), n)  # the last entity often stays empty
    kinds = [random_message(rng) for _ in range(6)]
    msgs = [kinds[k] for k in rng.integers(0, len(kinds), n)]
    return records(*zip(ts.tolist(), entities.tolist(), msgs)), window_size, n_entities, n_windows


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_mask_matches_the_four_patterns_in_sequence(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            message = random_message(rng)
            assert mask_message(message) == oracle_mask(message), message

    def test_mask_covers_messages_with_and_without_each_literal(self):
        rng = np.random.default_rng(0)
        messages = [random_message(rng) for _ in range(400)]
        for literal in (".", "-", "x"):
            assert any(literal in m for m in messages) and any(literal not in m for m in messages)

    @pytest.mark.parametrize("seed", range(40))
    def test_windows_labels_and_jsonl_match_the_reference(self, seed):
        raw, window_size, n_entities, n_windows = random_incident(seed)
        vocab, events = parse_templates(raw)
        assert vocab == list(dict.fromkeys(oracle_mask(r["msg"]) for r in raw))
        expected = oracle_windows(
            [tuple(e) for e in events.tolist()], vocab, window_size, n_entities, n_windows
        )
        table = label_windows(
            window_sequences(events, vocab, window_size, n_entities, n_windows), vocab
        )
        assert cells(table) == [(w["templates"], w["frequencies"]) for w in expected]
        assert table.labels.tolist() == [w["label"] for w in expected]
        assert windows_to_jsonl(table) == oracle_jsonl(expected)

    @pytest.mark.parametrize("flagged,total", [(1, 3), (1, 20000), (2, 3), (0, 4), (7, 7)])
    def test_labels_keep_the_exact_quotient(self, flagged, total):
        raw = records(*[(0, 0, "connection timeout" if i < flagged else "all ok")
                        for i in range(total)])
        vocab, events = parse_templates(raw)
        table = label_windows(window_sequences(events, vocab, 1, 1, 1), vocab)
        expected = oracle_windows([tuple(e) for e in events.tolist()], vocab, 1, 1, 1)
        assert table.labels.tolist() == [flagged / total] == [expected[0]["label"]]
        assert windows_to_jsonl(table) == oracle_jsonl(expected)

    def test_label_5e_05_is_written_like_json_dumps(self):
        table = table_of([([0, 1], [1, 19999], 5e-05), ([], [], 1 / 3)])
        line = windows_to_jsonl(table).splitlines()[0]
        assert '"label": 5e-05' in line
        assert windows_to_jsonl(table) == oracle_jsonl(
            [{"entity": 0, "window_index": 0, "templates": [0, 1], "frequencies": [1, 19999],
              "label": 5e-05},
             {"entity": 0, "window_index": 1, "templates": [], "frequencies": [],
              "label": 1 / 3}]
        )

    @pytest.mark.parametrize("seed", range(30))
    def test_a_bad_event_raises_like_the_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        raw, window_size, n_entities, n_windows = random_incident(seed)
        vocab, events = parse_templates(raw + records((0, 0, "extra")))
        events = events.tolist()
        for _ in range(3):  # several bad events: the first in ts order is named
            i = int(rng.integers(0, len(events)))
            kind = rng.integers(0, 3)
            ts, entity, template = events[i]
            if kind == 0:
                events[i] = [ts, entity, len(vocab) + int(rng.integers(0, 3))]
            elif kind == 1:
                events[i] = [ts, [-1, n_entities][rng.integers(0, 2)], template]
            else:
                events[i] = [[-1, n_windows * window_size][rng.integers(0, 2)], entity, template]
        with pytest.raises(ValueError) as expected:
            oracle_windows([tuple(e) for e in events], vocab, window_size, n_entities, n_windows)
        with pytest.raises(ValueError) as got:
            window_sequences(np.array(events), vocab, window_size, n_entities, n_windows)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("seed", range(20))
    def test_panel_csv_bytes_match_csv_writer(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        n, t = int(rng.integers(1, 6)), int(rng.integers(1, 30))
        values = rng.standard_normal((n + 1, t)) * 10.0 ** rng.integers(-8, 8, (n + 1, t))
        values[0, 0] = 1 / 3
        names = [f"svc-{i}" for i in range(n)]
        names[0] = ["a,b", 'say "hi"', "", "plain"][seed % 4]
        panel = ModalityPanel(values, names)
        write_panel_csv(panel, tmp_path / "p.csv", "cpu")
        assert (tmp_path / "p.csv").read_bytes() == oracle_panel_csv(panel, "cpu")
        if names[0] != "":  # csv rows cannot tell an empty entity name from a missing one
            restored = read_panel_csv(tmp_path / "p.csv", "cpu")
            assert restored.entity_names == names
            assert restored.values.tolist() == values.tolist()

    @pytest.mark.parametrize("seed", range(30))
    def test_panel_read_errors_name_the_reference_offender(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        rows = [(t, name, "cpu" if name != "kpi" else "kpi", float(t))
                for t in range(4) for name in ("e0", "e1", "kpi")]
        rows += [(t, "e0", "mem", 0.5) for t in range(2)]
        order = rng.permutation(len(rows))
        rows = [rows[i] for i in order]
        for _ in range(int(rng.integers(1, 4))):
            if rng.integers(0, 2):
                del rows[int(rng.integers(0, len(rows)))]
            else:
                rows.insert(int(rng.integers(0, len(rows))), rows[int(rng.integers(0, len(rows)))])
        path = tmp_path / "metrics.csv"
        lines = ["timestamp,entity,metric_name,value"] + [",".join(map(str, r)) for r in rows]
        path.write_text("\n".join(lines) + "\n")
        expected = oracle_read_panel_error(path, "cpu")
        if expected is None:
            assert read_panel_csv(path, "cpu").entity_names == ["e0", "e1"]
            return
        with pytest.raises(ValueError) as got:
            read_panel_csv(path, "cpu")
        assert str(got.value) == expected


class TestMasking:
    def test_numbers_collapse(self):
        assert mask_message("GET /api took 42 ms") == "GET /api took <*> ms"
        assert mask_message("GET /api took 7 ms") == "GET /api took <*> ms"

    def test_ip_addresses(self):
        assert mask_message("peer 10.0.12.1 joined") == "peer <*> joined"

    def test_uuid(self):
        masked = mask_message("job 123e4567-e89b-12d3-a456-426614174000 done")
        assert masked == "job <*> done"

    def test_hex_ids(self):
        assert mask_message("req 0xdeadBEEF handled") == "req <*> handled"
        assert mask_message("trace 7f3a9c21 handled") == "trace <*> handled"

    def test_plain_words_with_hex_letters_survive(self):
        assert mask_message("added beef to cache") == "added beef to cache"

    def test_idempotent(self):
        messages = [
            "GET /api/svc-3/items took 42 ms",
            "peer 10.0.0.1 at 0xff",
            "job 123e4567-e89b-12d3-a456-426614174000",
        ]
        for msg in messages:
            once = mask_message(msg)
            assert mask_message(once) == once

    def test_no_digits_survive(self):
        masked = mask_message("a1 b22 c3d4 10.1.1.1 0x1f 99")
        assert not any(ch.isdigit() for ch in masked)


def oracle_parse(messages):
    """The vocabulary and template ids of masking each message on its own."""
    by_pattern = {}
    ids = [by_pattern.setdefault(oracle_mask(m), len(by_pattern)) for m in messages]
    return list(by_pattern), ids


def parsed(messages):
    vocab, events = parse_templates(records(*[(i, 0, m) for i, m in enumerate(messages)]))
    return vocab, events[:, 2].tolist()


class TestDigitSkeletons:
    """parse_templates masks each digit skeleton once, and must give every message
    the template that masking it alone gives."""

    def test_messages_that_share_a_skeleton_get_their_own_templates(self):
        messages = [
            "GET /api took 42 ms", "GET /api took 97 ms", "peer 10.2.3.4 left",
            "peer 10.9.8.7 left", "req 0x2fa3 done", "req 0x9bc8 done",
            "job 223e4567-e89b-42d3-a456-426614174999 done",
            "job 923e4567-e89b-82d3-a456-826614174555 done", "trace 7f3a9c21 held",
            "trace 2f3a9c28 held", "GET /api took 11 ms", "peer 10.1.1.1 left",
        ]
        assert parsed(messages) == oracle_parse(messages)

    @pytest.mark.parametrize(
        "messages",
        [
            ["release v1.2 up", "release v7.2 up", "release v9.9 up", "release v1.1 up"],
            ["a1g b", "a7g b", "a2g b", "a1g b"],
            ["id 0x1f", "id 1x1f", "id 0x9f", "id 9x9f", "id 1X1f", "id 0X1f"],
            ["sum \u0661\u0662 ok", "sum \u0661\u0663 ok", "sum x\u06623 ok", "sum x\u06627 ok"],
            ["", "", "7", "1", ""],
            ["a 12\nb 34", "a 56\nb 78", "a1\nb", "a5\nb", "\n", "4\n4"],
            ["10.1.2.3.4", "10.9.2.3.4", "1.2.3", "1.2.3.9", "99.1.1.1", "1-2", "9-9"],
        ],
        ids=["dotted", "word", "hex-prefix", "non-ascii", "empty", "newline", "ip-like"],
    )
    def test_digits_that_survive_masking_keep_their_own_value(self, messages):
        assert parsed(messages) == oracle_parse(messages)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_messages_with_their_digits_redrawn(self, seed):
        rng = np.random.default_rng(1000 + seed)
        messages = []
        for _ in range(30):
            message = random_message(rng)
            messages.append(message)
            for _ in range(3):  # the same skeleton, other nonzero digits
                messages.append(
                    "".join(str(rng.integers(1, 10)) if c in "123456789" else c for c in message)
                )
        assert parsed(messages) == oracle_parse(messages)

    def test_a_40_entity_incident_stream(self):
        spec = sample_scenario(40, "metric_only", horizon_T=300, noise_std=0.1, seed=0)
        raw = generate_incident(spec).raw_logs
        vocab, events = parse_templates(raw)
        assert len(raw) > 2 * logs._BLOCK_LINES
        assert (vocab, events[:, 2].tolist()) == oracle_parse([r["msg"] for r in raw])
        assert events[:, :2].tolist() == [[r["ts"], r["entity"]] for r in raw]

    def test_messages_that_differ_only_in_nonzero_digits_are_masked_once(self, monkeypatch):
        calls = []

        def counting(message):
            calls.append(message)
            return mask_message(message)

        monkeypatch.setattr(logs, "mask_message", counting)
        vocab, ids = parsed(["took 42 ms", "took 97 ms", "took 33 ms", "took 58 ms"])
        assert (vocab, ids) == (["took <*> ms"], [0, 0, 0, 0])
        assert calls == ["took 11 ms"]
        calls.clear()
        assert parsed(["req 0x2f ok", "req 0x9f ok"]) == (["req <*> ok"], [0, 0])
        assert calls == ["req 0x1f ok"]  # a 0 stays, so a 0x-hex field is masked with it
        calls.clear()
        assert parsed(["v2.5", "v7.5"]) == (["v2.<*>", "v7.<*>"], [0, 1])
        assert calls == ["v1.1", "v2.5", "v7.5"]  # a surviving 1 masks the message itself


class TestParseTemplates:
    def test_variants_collapse_to_one_template(self):
        vocab, events = parse_templates(
            records((0, 0, "GET /api took 42 ms"), (1, 0, "GET /api took 7 ms"))
        )
        assert len(vocab) == 1
        assert vocab == ["GET /api took <*> ms"]
        assert events.tolist() == [[0, 0, 0], [1, 0, 0]]

    def test_empty_input(self):
        vocab, events = parse_templates([])
        assert vocab == [] and events.shape == (0, 3)

    def test_identical_messages_same_id(self):
        vocab, events = parse_templates(
            records((0, 0, "restart now"), (5, 1, "restart now"))
        )
        assert len(vocab) == 1
        assert events[0, 2] == events[1, 2]

    def test_missing_field_names_record_index(self):
        bad = [{"ts": 0, "entity": 0, "msg": "ok"}, {"ts": 1, "entity": 0}]
        with pytest.raises(ValueError, match="record 1"):
            parse_templates(bad)

    @pytest.mark.parametrize(
        "field,value", [("ts", 1.5), ("ts", "x"), ("ts", True), ("entity", 1.0), ("entity", None)]
    )
    def test_a_non_int_ts_or_entity_names_the_record(self, field, value):
        bad = [{"ts": 0, "entity": 0, "msg": "ok"}, {"ts": 1, "entity": 0, "msg": "ok"}]
        bad[1][field] = value
        with pytest.raises(ValueError, match=f"log record 1 field '{field}' must be an int"):
            parse_templates(bad)

    @pytest.mark.parametrize("value", [5, None, ["a"], b"bytes"])
    def test_a_non_string_msg_names_the_record(self, value):
        bad = [{"ts": 0, "entity": 0, "msg": "ok"}, {"ts": 1, "entity": 0, "msg": value}]
        with pytest.raises(ValueError, match="log record 1 field 'msg' must be a string"):
            parse_templates(bad)

    def test_the_first_bad_record_is_named(self):
        bad = records((0, 0, "ok"), (1, 0, "ok"), (2, 0, "ok"))
        bad[2]["entity"] = "x"
        bad[1]["msg"] = 5
        with pytest.raises(ValueError, match="log record 1 field 'msg'"):
            parse_templates(bad)

    def test_a_ts_beyond_64_bits_names_the_record(self):
        with pytest.raises(ValueError, match="log record 1 field 'ts' does not fit in 64 bits"):
            parse_templates(records((0, 0, "ok"), (2**70, 0, "ok")))

    def test_a_missing_field_before_an_overflow_is_named(self):
        bad = records((0, 0, "ok"), (1, 0, "ok"), (2**70, 0, "ok"))
        del bad[1]["msg"]
        with pytest.raises(ValueError, match=r"^log record 1 is missing field 'msg'$"):
            parse_templates(bad)

    def test_deterministic_and_reparse_stable(self):
        recs = records((0, 0, "GET /x took 5 ms"), (1, 1, "peer 10.0.0.1 left"))
        vocab1, events1 = parse_templates(recs)
        vocab2, events2 = parse_templates(recs)
        assert vocab1 == vocab2
        assert np.array_equal(events1, events2)
        # re-parsing the masked patterns yields the same patterns
        reparsed, _ = parse_templates([{"ts": 0, "entity": 0, "msg": p} for p in vocab1])
        assert reparsed == vocab1


class TestWindowSequences:
    def test_hand_worked_single_window(self):
        vocab, events = parse_templates(
            records((0, 0, "alpha start"), (1, 0, "beta run"), (2, 0, "alpha start"))
        )
        windows = window_sequences(events, vocab, window_size=5, n_entities=1, n_windows=1)
        assert cells(windows) == [([0, 1], [2, 1])]

    def test_single_event(self):
        vocab, events = parse_templates(records((3, 0, "solo msg")))
        windows = window_sequences(events, vocab, window_size=5, n_entities=1, n_windows=1)
        assert cells(windows) == [([0], [1])]

    def test_events_spanning_two_windows(self):
        vocab, events = parse_templates(records((0, 0, "tick"), (4, 0, "tick")))
        windows = window_sequences(events, vocab, window_size=3, n_entities=1, n_windows=2)
        assert cells(windows) == [([0], [1]), ([0], [1])]

    def test_first_appearance_order(self):
        vocab, events = parse_templates(
            records((0, 0, "bbb"), (1, 0, "aaa"), (2, 0, "bbb"), (3, 0, "ccc"))
        )
        windows = window_sequences(events, vocab, window_size=10, n_entities=1, n_windows=1)
        assert [vocab[t] for t in cells(windows)[0][0]] == ["bbb", "aaa", "ccc"]

    def test_first_appearance_follows_ts_not_record_order(self):
        vocab, events = parse_templates(
            records((2, 0, "bbb"), (1, 0, "aaa"), (1, 0, "ccc"), (0, 1, "bbb"))
        )
        windows = window_sequences(events, vocab, window_size=5, n_entities=2, n_windows=1)
        # ties keep record order: aaa (record 1) before ccc (record 2)
        assert cells(windows) == [([1, 2, 0], [1, 1, 1]), ([0], [1])]

    def test_cells_are_entity_major(self):
        vocab, events = parse_templates(records((0, 1, "one"), (1, 0, "zero")))
        windows = window_sequences(events, vocab, window_size=1, n_entities=2, n_windows=2)
        empty = ([], [])
        assert cells(windows) == [empty, ([1], [1]), ([0], [1]), empty]

    def test_an_empty_cell_holds_no_entry(self):
        vocab, events = parse_templates(records((0, 0, "only entity zero")))
        windows = window_sequences(events, vocab, window_size=5, n_entities=2, n_windows=2)
        assert windows.n_cells == 4
        assert cells(windows)[1:] == [([], [])] * 3
        assert windows_to_jsonl(windows).splitlines()[1] == (
            '{"entity": 0, "frequencies": [], "label": 0.0, "templates": [], "window_index": 1}'
        )
        # the tokenizer alone stands in the empty token for the missing template
        tokens, offsets, _ = tokenize(windows, len(vocab), EncoderConfig())
        assert tokens[offsets[1]:offsets[2]].tolist() == [CLS_TOKEN, EMPTY_TOKEN, N_RESERVED]

    @pytest.mark.parametrize("template_id", [1, 99, -2])
    def test_unknown_template_id_rejected(self, template_id):
        vocab, _ = parse_templates(records((0, 0, "known")))
        with pytest.raises(ValueError, match=f"template id {template_id} not present"):
            window_sequences(
                [(0, 0, template_id)], vocab, window_size=5, n_entities=1, n_windows=1
            )

    @pytest.mark.parametrize("ts", [-1, 10])
    def test_event_outside_the_grid_rejected(self, ts):
        vocab, events = parse_templates(records((0, 0, "inside"), (ts, 1, "outside")))
        with pytest.raises(ValueError, match=rf"entity 1 at ts {ts}\b"):
            window_sequences(events, vocab, window_size=5, n_entities=2, n_windows=2)

    def test_event_conservation(self):
        rng = np.random.default_rng(0)
        recs = records(
            *[
                (int(rng.integers(0, 50)), int(rng.integers(0, 3)), f"msg kind {rng.integers(0, 4)}")
                for _ in range(200)
            ]
        )
        vocab, events = parse_templates(recs)
        windows = window_sequences(events, vocab, window_size=7, n_entities=3, n_windows=8)
        assert windows.frequencies.sum() == len(events)


def label(window, vocab):
    return label_windows(table_of([window]), vocab).labels[0]


class TestLabelAnomaly:
    def vocab(self):
        vocab, _ = parse_templates(
            records((0, 0, "all ok"), (1, 0, "connection timeout"), (2, 0, "cache warm"))
        )
        return vocab

    def test_no_keyword_is_zero(self):
        assert label(([0, 2], [3, 2]), self.vocab()) == 0.0

    def test_all_keyword_is_one(self):
        assert label(([1], [4]), self.vocab()) == 1.0

    def test_frequency_weighted_fraction(self):
        assert label(([0, 1], [3, 1]), self.vocab()) == pytest.approx(0.25)

    def test_empty_window_is_zero(self):
        assert label(([], []), self.vocab()) == 0.0

    def test_case_insensitive(self):
        vocab, _ = parse_templates(records((0, 0, "CRITICAL failure in pump")))
        assert label(([0], [1]), vocab) == 1.0

    def test_monotone_in_keyword_events(self):
        vocab = self.vocab()
        assert label(([0, 1], [5, 2]), vocab) >= label(([0, 1], [5, 1]), vocab)

    def test_labels_an_incident_like_each_window_alone(self):
        spec = sample_scenario(6, "both", horizon_T=300, noise_std=0.1, seed=1)
        vocab, events = parse_templates(generate_incident(spec).raw_logs)
        windows = window_sequences(events, vocab, window_size=2, n_entities=6, n_windows=150)
        expected = [label(cell, vocab) for cell in cells(windows)]
        labelled = label_windows(windows, vocab)
        assert labelled.labels.tolist() == expected
        assert ([], []) in cells(windows)
        assert 0.0 < max(expected) and len(set(expected)) > 2

    def test_default_signals_have_no_digits(self):
        # masking strips digits, so digit-bearing keywords could never match
        assert all(not any(ch.isdigit() for ch in s) for s in DEFAULT_GOLDEN_SIGNALS)


class TestWindowValidation:
    def test_duplicate_templates_rejected(self):
        with pytest.raises(ValueError, match="window templates must be unique: entity 0, window 1"):
            table_of([([1], [1]), ([1, 1], [1, 1])])

    def test_misaligned_frequencies_rejected(self):
        with pytest.raises(ValueError, match="frequencies must align with templates"):
            WindowTable(1, 1, [0, 1], [1], [1, 2], [0.0])

    def test_positive_frequencies_enforced(self):
        with pytest.raises(ValueError, match="frequencies must be positive: entity 1, window 0"):
            table_of([([1], [1]), ([2], [0])], n_entities=2)

    @pytest.mark.parametrize("value", [1.5, -0.1, float("nan")])
    def test_label_range_enforced(self, value):
        with pytest.raises(ValueError, match=r"label must lie in \[0, 1\]: entity 0, window 0"):
            table_of([([1], [1], value)])

    @pytest.mark.parametrize(
        "windows,named",
        [
            # the lowest bad cell, though a later cell fails an earlier check
            ([([1], [1], 1.5), ([1, 1], [1, 1])], r"label must lie in \[0, 1\]: entity 0, window 0"),
            ([([1], [0]), ([1, 1], [1, 1])], "frequencies must be positive: entity 0, window 0"),
            # within one cell: templates, then frequencies, then the label
            ([([1], [1]), ([1, 1], [0, 1], 1.5)], "templates must be unique: entity 0, window 1"),
            ([([1], [1]), ([1], [0], 1.5)], "frequencies must be positive: entity 0, window 1"),
        ],
    )
    def test_the_lowest_bad_cell_is_named_with_its_first_failed_check(self, windows, named):
        with pytest.raises(ValueError, match=named):
            table_of(windows)

    def test_offsets_must_cover_the_grid(self):
        with pytest.raises(ValueError, match="window offsets"):
            WindowTable(1, 2, [0, 1], [1], [1], [0.0, 0.0])

    def test_templates_may_repeat_across_cells(self):
        assert cells(table_of([([1, 2], [1, 1]), ([2, 1], [3, 1])])) == [
            ([1, 2], [1, 1]), ([2, 1], [3, 1])
        ]


class TestLogsFile:
    def write(self, tmp_path, lines):
        path = tmp_path / "logs.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def good(self, i):
        return json.dumps({"entity": 0, "msg": f"tick {i}", "ts": i}, sort_keys=True)

    def test_reads_every_non_blank_line(self, tmp_path):
        path = self.write(tmp_path, [self.good(0), "", "   ", self.good(1)])
        assert list(read_logs_jsonl(path)) == [json.loads(self.good(0)), json.loads(self.good(1))]

    def test_reads_every_block(self, tmp_path):
        n = 2 * logs._BLOCK_LINES + 3
        lines = [self.good(i) for i in range(n)]
        lines[logs._BLOCK_LINES - 1] = ""
        path = self.write(tmp_path, lines)
        expected = [json.loads(line) for line in lines if line]
        assert list(read_logs_jsonl(path)) == expected
        vocab, events = parse_templates(read_logs_jsonl(path))
        assert vocab == ["tick <*>"]
        assert events.tolist() == [[r["ts"], 0, 0] for r in expected]

    @pytest.mark.parametrize("offset", [-1, 0, 1, 2, logs._BLOCK_LINES + 7])
    def test_a_bad_line_after_the_first_block_is_named(self, tmp_path, offset):
        lines = [self.good(i) for i in range(2 * logs._BLOCK_LINES + 10)]
        lines[3] = ""  # blank lines count as lines, not as records
        number = logs._BLOCK_LINES + offset  # 1-based
        lines[number - 1] = '{"ts": 1'
        path = self.write(tmp_path, lines)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))} line {number} is not valid"):
            parse_templates(read_logs_jsonl(path))

    @pytest.mark.parametrize("offset", [-1, 0, 1, 2, logs._BLOCK_LINES + 7])
    def test_a_bad_record_after_the_first_block_is_named_by_its_index(self, tmp_path, offset):
        lines = [self.good(i) for i in range(2 * logs._BLOCK_LINES + 10)]
        lines[3] = ""  # a blank line is no record, so the index is one less than the line's
        number = logs._BLOCK_LINES + offset  # 1-based
        lines[number - 1] = json.dumps({"entity": 0, "ts": 1})
        with pytest.raises(ValueError, match=rf"^log record {number - 2} is missing field 'msg'"):
            parse_templates(read_logs_jsonl(self.write(tmp_path, lines)))
        lines[number - 1] = json.dumps({"entity": "0", "msg": "a", "ts": 1})
        with pytest.raises(ValueError, match=rf"^log record {number - 2} field 'entity' must be"):
            parse_templates(read_logs_jsonl(self.write(tmp_path, lines)))
        lines[number - 1] = json.dumps({"entity": 0, "msg": "a", "ts": 2**64})
        with pytest.raises(ValueError, match=rf"^log record {number - 2} field 'ts' does not fit"):
            parse_templates(read_logs_jsonl(self.write(tmp_path, lines)))

    @pytest.mark.parametrize(
        "bad",
        ["{", "not json", '{"ts": 1} {"ts": 2}', '{"ts": 1}, {"ts": 2}', '{"msg": "a', '"b"}'],
    )
    def test_a_bad_line_names_the_file_and_its_number(self, tmp_path, bad):
        lines = [self.good(i) for i in range(6)]
        lines.insert(2, "")  # a blank line still counts
        lines[5] = bad
        path = self.write(tmp_path, lines)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))} line 6 is not valid JSON"):
            list(read_logs_jsonl(path))

    def test_a_value_split_over_two_lines_is_rejected(self, tmp_path):
        lines = [self.good(0), '{"entity": 0, "msg": "a", "ts": 1, "x": [', '1]}', self.good(2)]
        with pytest.raises(ValueError, match="line 2 is not valid JSON"):
            list(read_logs_jsonl(self.write(tmp_path, lines)))


def test_a_template_id_is_its_position_in_the_vocabulary():
    vocab = ["all ok", "disk failure"]
    windows = window_sequences([(1, 0, 1), (0, 0, 0), (2, 0, 1)], vocab, 1, 1, 3)
    assert cells(windows) == [([0], [1]), ([1], [1]), ([1], [1])]
    assert label_windows(windows, vocab).labels.tolist() == [0.0, 1.0, 1.0]
