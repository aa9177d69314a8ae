import math
import struct
import zlib

import numpy as np
import pytest

from biofuse.corpus import EventMarker, Modality, Recording, Stream, SynthConfig, generate_synthetic
from biofuse.errors import (
    DatasetFormatError,
    DegenerateWindow,
    FitError,
    ValidationError,
    WindowOutOfRange,
)
from biofuse.preprocess import (
    GRID_POINTS,
    GRID_STEP_S,
    NanPolicy,
    RawWindow,
    Rejected,
    Sample,
    Standardizer,
    apply_standardizer,
    build_dataset,
    extract_window,
    fit_standardizer,
    load_dataset,
    pair_samples,
    resample_to_grid,
    save_dataset,
    screen_and_interpolate,
)
from oracles import oracle_interp, reseal


def _recording(rate=200.0, duration=20.0, n_channels=16, modality=Modality.EYE_PUPIL):
    ts = np.arange(int(duration * rate) + 1) / rate
    vals = np.zeros((ts.size, n_channels))
    stream = Stream(modality, rate, ts, vals)
    events = [EventMarker(t=10.0, round_id=0, dot_index=0)]
    return Recording(subject_id="s00", streams=[stream], events=events)


class TestExtractWindow:
    def test_window_span(self):
        rec = _recording()
        w = extract_window(rec.streams[0], rec.subject_id, rec.events[0])
        assert w.t0 == pytest.approx(9.9)
        assert w.timestamps[0] >= 9.9
        assert w.timestamps[-1] < 10.3

    def test_out_of_range(self):
        rec = _recording()
        early = EventMarker(t=0.05, round_id=0, dot_index=1)
        with pytest.raises(WindowOutOfRange):
            extract_window(rec.streams[0], rec.subject_id, early)

    def test_row_count_200hz(self):
        rec = _recording(rate=200.0)
        w = extract_window(rec.streams[0], rec.subject_id, rec.events[0])
        assert w.timestamps.size == 80  # 0.4 s x 200 Hz, half-open window


def _window(values, rate=200.0, t0=0.0):
    n = values.shape[0]
    return RawWindow(
        subject_id="s00", round_id=0, modality=Modality.EYE,
        t0=t0, timestamps=t0 + np.arange(n) / rate, values=values,
    )


class TestResample:
    def test_constant_channel(self):
        w = _window(np.full((80, 1), 3.5))
        out = resample_to_grid(w)
        assert out.shape == (1, GRID_POINTS)
        np.testing.assert_array_equal(out, 3.5)

    def test_affine_exact(self):
        ts = np.arange(80) / 200.0
        w = _window((2.5 * ts - 1.0)[:, None])
        out = resample_to_grid(w)
        grid = np.arange(GRID_POINTS) * GRID_STEP_S
        # grid extends past the last raw row; exactness holds inside the span
        inside = grid <= ts[-1]
        np.testing.assert_allclose(out[0][inside], 2.5 * grid[inside] - 1.0, atol=1e-12, rtol=0)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(5)
        vals = rng.standard_normal((80, 1))
        w = _window(vals, t0=3.0)
        out = resample_to_grid(w)
        grid = (3.0 + np.arange(GRID_POINTS) * GRID_STEP_S).tolist()
        expect = oracle_interp(grid, w.timestamps.tolist(), vals[:, 0].tolist())
        np.testing.assert_allclose(out[0], expect, atol=1e-12, rtol=0)

    def test_degenerate_window(self):
        with pytest.raises(DegenerateWindow):
            resample_to_grid(_window(np.zeros((1, 2))))


class TestScreen:
    def test_midpoint_fill(self):
        data = np.ones((1, GRID_POINTS))
        data[0, :3] = [1.0, np.nan, 3.0]
        out = screen_and_interpolate(data, NanPolicy())
        assert out[0, 1] == pytest.approx(2.0)

    def test_threshold_rejects(self):
        data = np.zeros((1, GRID_POINTS))
        n_nan = int(0.30 * GRID_POINTS)
        data[0, :n_nan] = np.nan
        verdict = screen_and_interpolate(data, NanPolicy(max_nan_fraction=0.25))
        assert isinstance(verdict, Rejected)
        assert verdict.channel == 0
        assert verdict.nan_fraction == pytest.approx(n_nan / GRID_POINTS)

    def test_leading_run_extends_nearest(self):
        data = np.full((1, GRID_POINTS), 7.0)
        data[0, :2] = np.nan
        data[0, 2] = 5.0
        out = screen_and_interpolate(data, NanPolicy())
        np.testing.assert_array_equal(out[0, :3], [5.0, 5.0, 5.0])

    def test_all_nan_channel_rejected_even_at_threshold_one(self):
        data = np.full((2, GRID_POINTS), np.nan)
        data[1] = 0.0
        verdict = screen_and_interpolate(data, NanPolicy(max_nan_fraction=1.0))
        assert isinstance(verdict, Rejected)

    def test_no_nan_survives(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((4, GRID_POINTS))
        mask = rng.random((4, GRID_POINTS)) < 0.15
        data[mask] = np.nan
        out = screen_and_interpolate(data, NanPolicy())
        assert not isinstance(out, Rejected)
        assert not np.isnan(out).any()


def _samples_from(data_list, modality=Modality.BRAIN):
    return [
        Sample(subject_id="s00", round_id=0, modality=modality, data=d, t0=float(i))
        for i, d in enumerate(data_list)
    ]


class TestStandardizer:
    def test_known_transform(self):
        std = Standardizer(
            modality=Modality.BRAIN,
            mean=np.full(14, 5.0),
            std=np.full(14, 2.0),
            scope="t",
        )
        sample = _samples_from([np.full((14, GRID_POINTS), 9.0)])[0]
        out = apply_standardizer(std, sample)
        np.testing.assert_allclose(out.data, 2.0)
        assert out.standardized_by == "t"

    def test_fit_apply_train_stats(self):
        rng = np.random.default_rng(3)
        samples = _samples_from([5.0 + 2.0 * rng.standard_normal((14, GRID_POINTS)) for _ in range(20)])
        std = fit_standardizer(samples, scope="fold0")
        out = np.stack([apply_standardizer(std, s).data for s in samples])
        per_channel = out.transpose(1, 0, 2).reshape(14, -1)
        assert np.abs(per_channel.mean(axis=1)).max() < 1e-9
        assert np.abs(per_channel.var(axis=1) - 1.0).max() < 1e-6

    def test_constant_channel_fails(self):
        data = np.random.default_rng(0).standard_normal((14, GRID_POINTS))
        data[3] = 1.25
        with pytest.raises(FitError, match="channel 3"):
            fit_standardizer(_samples_from([data, data + 0.0]))

    def test_double_standardization_rejected(self):
        samples = _samples_from(
            [np.random.default_rng(i).standard_normal((14, GRID_POINTS)) for i in range(3)]
        )
        std = fit_standardizer(samples)
        once = apply_standardizer(std, samples[0])
        with pytest.raises(ValidationError, match="already standardized"):
            apply_standardizer(std, once)


class TestBuildDataset:
    def test_counts_without_nan(self):
        cfg = SynthConfig(
            n_subjects=3, n_rounds=2, dots_per_round=25, blink_rate_per_min=0.0, seed=2
        )
        recs = generate_synthetic(cfg)
        samples, report = build_dataset(recs, Modality.EYE_PUPIL)
        assert len(samples) == 150
        assert report.total("extracted") == 150
        assert report.total("rejected") == 0

    def test_brain_never_rejected(self, small_corpus):
        _, recs = small_corpus
        _, report = build_dataset(recs, Modality.BRAIN)
        assert report.total("rejected") == 0

    def test_blink_heavy_rejections_match_recount(self):
        """Independent NaN-fraction recount over raw windows (bisect walk)."""
        cfg = SynthConfig(
            n_subjects=2, n_rounds=2, dots_per_round=10, blink_rate_per_min=40.0, seed=9
        )
        recs = generate_synthetic(cfg)
        policy = NanPolicy()
        _, report = build_dataset(recs, Modality.EYE_PUPIL, policy)

        expected_rejected = 0
        for rec in recs:
            stream = rec.stream_for(Modality.EYE_PUPIL)
            ts = stream.timestamps
            for ev in rec.events:
                if ev.t - 0.1 < ts[0] or ev.t + 0.3 > ts[-1]:
                    continue
                lo = int(np.searchsorted(ts, ev.t - 0.1))
                hi = int(np.searchsorted(ts, ev.t + 0.3, side="left"))
                raw_t = ts[lo:hi]
                raw_v = stream.values[lo:hi]
                rejected = False
                for ch in range(raw_v.shape[1]):
                    nan_hits = 0
                    for k in range(GRID_POINTS):
                        g = (ev.t - 0.1) + k * GRID_STEP_S
                        j = int(np.searchsorted(raw_t, g, side="right"))
                        if j == 0:
                            isnan = np.isnan(raw_v[0, ch])
                        elif j >= raw_t.size:
                            isnan = np.isnan(raw_v[-1, ch])
                        elif raw_t[j - 1] == g:
                            isnan = np.isnan(raw_v[j - 1, ch])
                        else:
                            isnan = np.isnan(raw_v[j - 1, ch]) or np.isnan(raw_v[j, ch])
                        nan_hits += bool(isnan)
                    frac = nan_hits / GRID_POINTS
                    if frac > policy.max_nan_fraction or nan_hits == GRID_POINTS:
                        rejected = True
                        break
                expected_rejected += rejected
        assert report.total("rejected") == expected_rejected

    def test_interpolation_locality(self, small_corpus):
        """Perturbing data outside the window leaves the sample unchanged."""
        _, recs = small_corpus
        rec = recs[0]
        ev = rec.events[3]
        stream = rec.stream_for(Modality.BRAIN)
        before = resample_to_grid(extract_window(stream, rec.subject_id, ev))
        outside = (stream.timestamps < ev.t - 0.1) | (stream.timestamps >= ev.t + 0.3)
        perturbed = Stream(
            Modality.BRAIN,
            stream.nominal_rate_hz,
            stream.timestamps,
            stream.values + outside[:, None] * 123.456,
        )
        after = resample_to_grid(extract_window(perturbed, rec.subject_id, ev))
        assert before.tobytes() == after.tobytes()

    def test_canonical_order_and_shape(self, small_corpus):
        _, recs = small_corpus
        samples, _ = build_dataset(recs, Modality.EYE)
        keys = [(s.subject_id, s.round_id, s.t0) for s in samples]
        assert keys == sorted(keys)
        assert all(s.data.shape == (12, GRID_POINTS) for s in samples)
        assert all(not np.isnan(s.data).any() for s in samples)


def _index_edit(k, field, value):
    """An edit of dataset bytes that sets `field` of sample k's index record."""
    def edit(raw):
        at = raw.index(b"\n", raw.index(b"\nsubjects") + 1) + 1 + 24 * k
        at += {"subject": 0, "round_id": 8, "t0": 16}[field]
        return raw[:at] + struct.pack("<d" if field == "t0" else "<q", value) + raw[at + 8:]
    return edit


class TestDatasetFile:
    def test_roundtrip(self, tmp_path, small_corpus):
        _, recs = small_corpus
        samples, _ = build_dataset(recs, Modality.EYE_PUPIL)
        path = tmp_path / "d.ds"
        save_dataset(samples, path)
        loaded, modality = load_dataset(path)
        assert modality is Modality.EYE_PUPIL
        assert len(loaded) == len(samples)
        for a, b in zip(samples, loaded):
            assert (a.subject_id, a.round_id, a.t0) == (b.subject_id, b.round_id, b.t0)
            assert a.data.tobytes() == b.data.tobytes()

    def test_file_layout_matches_docs(self, tmp_path, small_corpus):
        """The magic line, the dataset and subjects lines, one 24-byte index
        record and one float32 [C x 102] block per sample, then the CRC32 of
        every byte after the magic line."""
        _, recs = small_corpus
        samples, _ = build_dataset(recs, Modality.BRAIN)
        path = tmp_path / "d.ds"
        save_dataset(samples, path)
        body = f"dataset brain {len(samples)} 14 {GRID_POINTS}\nsubjects s00 s01 s02\n".encode()
        body += b"".join(struct.pack("<qqd", int(s.subject_id[1:]), s.round_id, s.t0)
                         for s in samples)
        body += b"".join(s.data.astype("<f4").tobytes() for s in samples)
        assert path.read_bytes() == (b"BIOFUSE-DS v2\n" + body
                                     + struct.pack("<I", zlib.crc32(body)))

    @pytest.mark.parametrize("edit, error", [
        pytest.param(_index_edit(1, "round_id", -1), "sample 1: round_id must be >= 0",
                     id="round"),
        pytest.param(_index_edit(1, "t0", math.nan), "sample 1: window start t0 must be finite",
                     id="t0"),
        pytest.param(_index_edit(1, "subject", 7),
                     "sample 1: subject 7 is not on the subjects line", id="subject"),
        pytest.param(lambda raw: raw.replace(b"dataset brain 3 ", b"dataset brain x "),
                     "sample count must be a non-negative integer, got 'x'", id="count"),
        pytest.param(lambda raw: raw.replace(b"\nsubjects", b"\nsubject"),
                     "expected a 'subjects' line", id="subjects-line"),
    ])
    def test_bad_index_raises_format_error(self, tmp_path, small_corpus, edit, error):
        _, recs = small_corpus
        samples, _ = build_dataset(recs, Modality.BRAIN)
        path = tmp_path / "d.ds"
        save_dataset(samples[:3], path)
        reseal(path, edit)
        with pytest.raises(DatasetFormatError, match=error):
            load_dataset(path)

    def test_nan_payload_raises_format_error(self, tmp_path, small_corpus):
        _, recs = small_corpus
        samples, _ = build_dataset(recs, Modality.BRAIN)
        path = tmp_path / "d.ds"
        save_dataset(samples[:2], path)
        clean = path.read_bytes()
        for value in (np.nan, np.inf, -np.inf):
            path.write_bytes(clean)

            def edit(raw, value=value):  # the first value of sample 0's block
                at = len(raw) - 2 * 14 * GRID_POINTS * 4
                return raw[:at] + np.float32(value).astype("<f4").tobytes() + raw[at + 4:]

            reseal(path, edit)
            with pytest.raises(DatasetFormatError, match="sample 0"):
                load_dataset(path)


@pytest.mark.parametrize("field, value, error", [
    ("subject_id", "a b", "subject_id must be a non-empty token without whitespace"),
    ("subject_id", "", "subject_id must be a non-empty token without whitespace"),
    ("subject_id", "x\ny", "subject_id must be a non-empty token without whitespace"),
    ("round_id", -1, "round_id must be >= 0"),
    ("t0", math.nan, "window start t0 must be finite"),
    ("t0", -math.inf, "window start t0 must be finite"),
])
def test_sample_rejects_what_a_dataset_file_cannot_hold(field, value, error):
    fields = dict(subject_id="s00", round_id=0, t0=0.0)
    fields[field] = value
    with pytest.raises(ValidationError, match=error):
        Sample(modality=Modality.BRAIN, data=np.zeros((14, GRID_POINTS)), **fields)


def test_pair_samples_inner_join(small_corpus):
    _, recs = small_corpus
    brain, _ = build_dataset(recs, Modality.BRAIN)
    eye, _ = build_dataset(recs, Modality.EYE_PUPIL)
    pairs = pair_samples(brain, eye)
    assert len(pairs) == len(eye)  # eye rejections shrink the join
    for p in pairs:
        assert p.brain.subject_id == p.eye.subject_id
        assert p.brain.round_id == p.eye.round_id
        assert p.brain.t0 == p.eye.t0
