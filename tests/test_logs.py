import pytest

from mmrca.logs import (
    DEFAULT_GOLDEN_SIGNALS,
    EMPTY_TEMPLATE_ID,
    LogSequenceWindow,
    label_anomaly,
    label_windows,
    mask_message,
    parse_templates,
    vocabulary_from_json,
    vocabulary_to_json,
    window_sequences,
    windows_from_jsonl,
    windows_to_jsonl,
)


def records(*triples):
    return [{"ts": ts, "entity": e, "msg": m} for ts, e, m in triples]


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


class TestParseTemplates:
    def test_variants_collapse_to_one_template(self):
        vocab, events = parse_templates(
            records((0, 0, "GET /api took 42 ms"), (1, 0, "GET /api took 7 ms"))
        )
        assert len(vocab) == 1
        assert vocab[0].pattern == "GET /api took <*> ms"
        assert [e[2] for e in events] == [0, 0]

    def test_empty_input(self):
        assert parse_templates([]) == ([], [])

    def test_identical_messages_same_id(self):
        vocab, events = parse_templates(
            records((0, 0, "restart now"), (5, 1, "restart now"))
        )
        assert len(vocab) == 1
        assert events[0][2] == events[1][2]

    def test_missing_field_names_record_index(self):
        bad = [{"ts": 0, "entity": 0, "msg": "ok"}, {"ts": 1, "entity": 0}]
        with pytest.raises(ValueError, match="record 1"):
            parse_templates(bad)

    def test_deterministic_and_reparse_stable(self):
        recs = records((0, 0, "GET /x took 5 ms"), (1, 1, "peer 10.0.0.1 left"))
        vocab1, events1 = parse_templates(recs)
        vocab2, events2 = parse_templates(recs)
        assert [(t.template_id, t.pattern) for t in vocab1] == [
            (t.template_id, t.pattern) for t in vocab2
        ]
        assert events1 == events2
        # re-parsing the masked patterns yields the same patterns
        reparsed, _ = parse_templates(
            [{"ts": 0, "entity": 0, "msg": t.pattern} for t in vocab1]
        )
        assert [t.pattern for t in reparsed] == [t.pattern for t in vocab1]


class TestWindowSequences:
    def test_hand_worked_single_window(self):
        vocab, events = parse_templates(
            records((0, 0, "alpha start"), (1, 0, "beta run"), (2, 0, "alpha start"))
        )
        windows = window_sequences(events, vocab, window_size=5, n_entities=1)
        assert len(windows) == 1
        assert windows[0].templates == [0, 1]
        assert windows[0].frequencies == [2, 1]

    def test_single_event(self):
        vocab, events = parse_templates(records((3, 0, "solo msg")))
        windows = window_sequences(events, vocab, window_size=5, n_entities=1)
        assert windows[0].templates == [0]
        assert windows[0].frequencies == [1]

    def test_events_spanning_two_windows(self):
        vocab, events = parse_templates(records((0, 0, "tick"), (4, 0, "tick")))
        windows = window_sequences(events, vocab, window_size=3, n_entities=1)
        assert len(windows) == 2
        assert all(w.templates == [0] and w.frequencies == [1] for w in windows)

    def test_first_appearance_order(self):
        vocab, events = parse_templates(
            records((0, 0, "bbb"), (1, 0, "aaa"), (2, 0, "bbb"), (3, 0, "ccc"))
        )
        windows = window_sequences(events, vocab, window_size=10, n_entities=1)
        patterns = {t.template_id: t.pattern for t in vocab}
        assert [patterns[t] for t in windows[0].templates] == ["bbb", "aaa", "ccc"]

    def test_empty_cells_get_reserved_template(self):
        vocab, events = parse_templates(records((0, 0, "only entity zero")))
        windows = window_sequences(events, vocab, window_size=5, n_entities=2, n_windows=2)
        assert len(windows) == 4
        empty = [w for w in windows if w.is_empty]
        assert len(empty) == 3
        assert all(w.templates == [EMPTY_TEMPLATE_ID] and w.frequencies == [1] for w in empty)

    def test_unknown_template_id_rejected(self):
        vocab, _ = parse_templates(records((0, 0, "known")))
        with pytest.raises(ValueError, match="99"):
            window_sequences([(0, 0, 99)], vocab, window_size=5, n_entities=1)

    @pytest.mark.parametrize("ts", [-1, 10])
    def test_event_outside_the_grid_rejected(self, ts):
        vocab, events = parse_templates(records((0, 0, "inside"), (ts, 1, "outside")))
        with pytest.raises(ValueError, match=rf"entity 1 at ts {ts}\b"):
            window_sequences(events, vocab, window_size=5, n_entities=2, n_windows=2)

    def test_event_conservation(self):
        import numpy as np

        rng = np.random.default_rng(0)
        recs = records(
            *[
                (int(rng.integers(0, 50)), int(rng.integers(0, 3)), f"msg kind {rng.integers(0, 4)}")
                for _ in range(200)
            ]
        )
        vocab, events = parse_templates(recs)
        windows = window_sequences(events, vocab, window_size=7, n_entities=3)
        total = sum(sum(w.frequencies) for w in windows if not w.is_empty)
        assert total == len(events)


class TestLabelAnomaly:
    def vocab(self):
        vocab, _ = parse_templates(
            records((0, 0, "all ok"), (1, 0, "connection timeout"), (2, 0, "cache warm"))
        )
        return vocab

    def test_no_keyword_is_zero(self):
        w = LogSequenceWindow(0, 0, templates=[0, 2], frequencies=[3, 2])
        assert label_anomaly(w, self.vocab()) == 0.0

    def test_all_keyword_is_one(self):
        w = LogSequenceWindow(0, 0, templates=[1], frequencies=[4])
        assert label_anomaly(w, self.vocab()) == 1.0

    def test_frequency_weighted_fraction(self):
        w = LogSequenceWindow(0, 0, templates=[0, 1], frequencies=[3, 1])
        assert label_anomaly(w, self.vocab()) == pytest.approx(0.25)

    def test_empty_window_is_zero(self):
        w = LogSequenceWindow(0, 0, templates=[EMPTY_TEMPLATE_ID], frequencies=[1])
        assert label_anomaly(w, self.vocab()) == 0.0

    def test_case_insensitive(self):
        vocab, _ = parse_templates(records((0, 0, "CRITICAL failure in pump")))
        w = LogSequenceWindow(0, 0, templates=[0], frequencies=[1])
        assert label_anomaly(w, vocab) == 1.0

    def test_monotone_in_keyword_events(self):
        vocab = self.vocab()
        base = LogSequenceWindow(0, 0, templates=[0, 1], frequencies=[5, 1])
        more = LogSequenceWindow(0, 0, templates=[0, 1], frequencies=[5, 2])
        assert label_anomaly(more, vocab) >= label_anomaly(base, vocab)

    def test_requires_signals(self):
        w = LogSequenceWindow(0, 0, templates=[0], frequencies=[1])
        with pytest.raises(ValueError):
            label_anomaly(w, self.vocab(), golden_signals=[])

    def test_default_signals_have_no_digits(self):
        # masking strips digits, so digit-bearing keywords could never match
        assert all(not any(ch.isdigit() for ch in s) for s in DEFAULT_GOLDEN_SIGNALS)


class TestWindowValidation:
    def test_duplicate_templates_rejected(self):
        with pytest.raises(ValueError):
            LogSequenceWindow(0, 0, templates=[1, 1], frequencies=[1, 1])

    def test_misaligned_frequencies_rejected(self):
        with pytest.raises(ValueError):
            LogSequenceWindow(0, 0, templates=[1], frequencies=[1, 2])

    def test_label_range_enforced(self):
        with pytest.raises(ValueError):
            LogSequenceWindow(0, 0, templates=[1], frequencies=[1], label=1.5)


def test_round_trips():
    vocab, events = parse_templates(
        records((0, 0, "alpha 1"), (1, 1, "beta timeout 2"), (8, 0, "alpha 3"))
    )
    windows = window_sequences(events, vocab, window_size=5, n_entities=2)
    label_windows(windows, vocab)
    assert vocabulary_from_json(vocabulary_to_json(vocab)) == vocab
    restored = windows_from_jsonl(windows_to_jsonl(windows))
    assert restored == windows
