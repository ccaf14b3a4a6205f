import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neuromap import workload
from neuromap.configio import ConfigFormatError
from neuromap.workload import (
    Bitwidths,
    EventTrace,
    Layer,
    NetworkModel,
    WorkloadError,
    firing_mask,
    firing_masks,
    load_network,
    load_trace,
    retime_trace,
    save_network,
    save_trace,
    synth_trace,
)
from helpers import pilotnet_like, with_rate


def chain(neuron_counts, rate=0.1, is_snn=True, fps=0):
    layers = tuple(
        Layer(id=i, kind="dense", channels=1, height=1, width=n,
              weights=0 if i == 0 else neuron_counts[i - 1] * n,
              biases=0 if i == 0 else n, is_snn=is_snn, avg_event_rate=rate)
        for i, n in enumerate(neuron_counts)
    )
    edges = tuple((i, i + 1) for i in range(len(neuron_counts) - 1))
    return NetworkModel(name="chain", layers=layers, edges=edges,
                        frame_rate_fps=fps)


def test_dense_layer_shape_is_degenerate():
    l = Layer(id=0, kind="dense", channels=1, height=1, width=128,
              weights=0, biases=0, is_snn=True, avg_event_rate=0.1)
    assert l.neurons == 128
    assert l.axis_extent("channel") == 1
    assert l.axis_extent("height") == 1
    assert l.axis_extent("width") == 128
    assert l.axis_extent("layer") == 128


def test_conv_layer_neuron_count():
    l = Layer(id=1, kind="conv", channels=24, height=31, width=98,
              weights=1800, biases=24, is_snn=True, avg_event_rate=0.05)
    assert l.neurons == 24 * 31 * 98 == 72912


def test_snn_thresholds_track_neurons():
    snn = Layer(id=0, kind="dense", channels=1, height=1, width=40,
                weights=0, biases=0, is_snn=True, avg_event_rate=0.1)
    ann = Layer(id=0, kind="dense", channels=1, height=1, width=40,
                weights=0, biases=0, is_snn=False, avg_event_rate=0.1)
    assert snn.thresholds == 40
    assert ann.thresholds == 0


def test_spike_rate_above_one_rejected_for_snn():
    with pytest.raises(WorkloadError):
        Layer(id=0, kind="dense", channels=1, height=1, width=4,
              weights=0, biases=0, is_snn=True, avg_event_rate=1.5).validate()


def test_ann_rate_above_one_allowed():
    Layer(id=0, kind="dense", channels=1, height=1, width=4,
          weights=0, biases=0, is_snn=False, avg_event_rate=2.5).validate()


def test_model_rejects_cycle_and_orphan():
    layers = tuple(
        Layer(id=i, kind="dense", channels=1, height=1, width=4,
              weights=0, biases=0, is_snn=True, avg_event_rate=0.1)
        for i in range(3)
    )
    with pytest.raises(WorkloadError):
        NetworkModel(name="bad", layers=layers, edges=((0, 1), (2, 1)))
    with pytest.raises(WorkloadError):
        NetworkModel(name="bad", layers=layers, edges=((0, 1),))
    with pytest.raises(WorkloadError):
        NetworkModel(name="bad", layers=layers, edges=((0, 1), (1, 2), (2, 0)))


def test_model_rejects_two_sinks():
    layers = tuple(
        Layer(id=i, kind="dense", channels=1, height=1, width=4,
              weights=0, biases=0, is_snn=True, avg_event_rate=0.1)
        for i in range(3)
    )
    with pytest.raises(WorkloadError):
        NetworkModel(name="bad", layers=layers, edges=((0, 1), (0, 2)))


def test_bitwidths_restricted():
    with pytest.raises(WorkloadError):
        NetworkModel(name="bad",
                     layers=chain([4, 4]).layers,
                     edges=((0, 1),),
                     bitwidths=Bitwidths(states=12))


def test_network_roundtrip(tmp_path):
    model = chain([100, 40, 10], rate=0.25, fps=30)
    p = tmp_path / "m.net"
    save_network(model, p)
    assert load_network(p) == model


def test_network_roundtrip_with_branching_edges(tmp_path):
    layers = tuple(
        Layer(id=i, kind="dense", channels=1, height=1, width=8,
              weights=0, biases=0, is_snn=True, avg_event_rate=0.1)
        for i in range(4)
    )
    model = NetworkModel(name="diamond", layers=layers,
                         edges=((0, 1), (0, 2), (1, 3), (2, 3)))
    p = tmp_path / "d.net"
    save_network(model, p)
    assert load_network(p) == model


def test_pilotnet_like_layer_table():
    m = pilotnet_like()
    counts = [l.neurons for l in m.layers]
    assert counts == [39600, 72912, 23688, 5280, 3840, 1152, 100, 50, 10, 1]
    assert [l.weights for l in m.layers] == [
        0, 1800, 21600, 43200, 27648, 36864, 115200, 5000, 500, 10]
    assert [l.biases for l in m.layers] == [0, 24, 36, 48, 64, 64, 100, 50, 10, 1]
    assert m.edges == tuple((i, i + 1) for i in range(9))
    assert m.output_layer.neurons == 1


def test_synth_trace_rate_one_full_bursts():
    model = chain([10, 5], rate=1.0, fps=30)
    tr = synth_trace(model, n_frames=2, fps=30, seed=0)
    assert len(tr.events) == 20
    frames = tr.frames()
    assert len(frames) == 2
    assert len(frames[0]) == 10 and len(frames[1]) == 10
    t0 = frames[0][0][0]
    t1 = frames[1][0][0]
    assert t1 - t0 == pytest.approx(1 / 30)


def test_synth_trace_rate_zero_empty():
    model = chain([10, 5], rate=0.0)
    tr = synth_trace(model, n_frames=5, fps=30, seed=0)
    assert tr.events == ()


def test_synth_trace_event_count_within_3_sigma():
    model = chain([300, 5], rate=0.3)
    tr = synth_trace(model, n_frames=1, fps=30, seed=7)
    mean = 300 * 0.3
    sigma = (300 * 0.3 * 0.7) ** 0.5
    assert abs(len(tr.events) - mean) <= 3 * sigma


def test_synth_trace_fps_zero_uses_frame_ordinals():
    model = chain([4, 2], rate=1.0, fps=0)
    tr = synth_trace(model, n_frames=3, fps=0, seed=1)
    stamps = sorted({t for (t, _, _) in tr.events})
    assert stamps == [0.0, 1.0, 2.0]


def test_synth_trace_deterministic_per_seed():
    model = chain([50, 5], rate=0.5)
    a = synth_trace(model, 4, 30, seed=3)
    b = synth_trace(model, 4, 30, seed=3)
    c = synth_trace(model, 4, 30, seed=4)
    assert a == b
    assert a != c


def test_trace_roundtrip(tmp_path):
    model = chain([30, 5], rate=0.4, fps=30)
    tr = synth_trace(model, 3, 30, seed=2)
    p = tmp_path / "t.csv"
    save_trace(tr, p)
    back = load_trace(p)
    assert back == tr


def test_trace_roundtrip_fps_zero(tmp_path):
    model = chain([30, 5], rate=0.4, fps=0)
    tr = synth_trace(model, 3, 0, seed=2)
    p = tmp_path / "t0.csv"
    save_trace(tr, p)
    assert load_trace(p) == tr


# --- the frame grid ---

def silent_middle(fps):
    """Frame 0 with 2 events, frame 1 silent, frame 2 with 5 events."""
    t2 = 2 / fps if fps > 0 else 2.0
    return EventTrace(events=tuple([(0.0, n, 16) for n in range(2)]
                                   + [(t2, n, 16) for n in range(5)]),
                      fps=fps, n_frames=3)


@pytest.mark.parametrize("fps", [10.0, 0.0])
def test_silent_frame_keeps_its_slot(fps):
    assert [len(f) for f in silent_middle(fps).frames()] == [2, 0, 5]


def test_retiming_keeps_every_burst_in_its_slot():
    tr = silent_middle(10.0)
    for fps, stamps in ((20.0, [0.0, 0.1]), (0.0, [0.0, 2.0]),
                        (10.0, [0.0, 0.2])):
        moved = retime_trace(tr, fps)
        assert moved.fps == fps
        assert sorted({t for (t, _, _) in moved.events}) == stamps
        assert [len(f) for f in moved.frames()] == [2, 0, 5]
    assert retime_trace(retime_trace(tr, 20.0), 10.0) == tr
    assert retime_trace(retime_trace(tr, 0.0), 10.0) == tr


@pytest.mark.parametrize("events, fps, message", [
    (((0.0, 0, 16), (0.3, 1, 16)), 10.0, "outside the 3-frame grid"),
    (((0.0, 0, 16), (3.0, 1, 16)), 0.0, "outside the 3-frame grid"),
    (((0.1, 0, 16), (0.11, 1, 16)), 10.0, "two trace bursts map to frame slot 1"),
    (((1.0, 0, 16), (1.2, 1, 16)), 0.0, "two trace bursts map to frame slot 1"),
    (((float("nan"), 0, 16),), 0.0, "finite"),
    (((0.0, 0, 16), (float("inf"), 1, 16)), 0.0, "finite"),
    (((0.0, 0, 16), (1e308, 1, 16)), 10.0, "finite"),
    ((), -1.0, "fps must be >= 0"),
], ids=["past-end", "past-end-drain", "shared-slot",
        "shared-slot-drain", "nan", "inf", "overflow", "negative-fps"])
def test_trace_off_the_grid_is_rejected_when_built(events, fps, message):
    with pytest.raises(WorkloadError, match=message):
        EventTrace(events=events, fps=fps, n_frames=3)


def test_trace_payload_bits_must_fit_int64():
    for bits in (0, 2**63 - 1):
        EventTrace(events=((0.0, 0, 16), (0.0, 1, bits)), fps=0.0, n_frames=1)
    for bits in (-1, 2**63):
        with pytest.raises(WorkloadError, match=f"got {bits}$"):
            EventTrace(events=((0.0, 0, 16), (0.0, 1, bits)), fps=0.0,
                       n_frames=1)


def test_headerless_trace_is_rejected(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("timestamp,neuron_id,payload_bits\n0.0,0,16\n1.0,1,16\n")
    with pytest.raises(WorkloadError, match="fps=<f> frames=<n>"):
        load_trace(p)


def test_trace_roundtrip_keeps_a_silent_frame(tmp_path):
    tr = silent_middle(10.0)
    p = tmp_path / "t.csv"
    save_trace(tr, p)
    assert load_trace(p) == tr


def test_trace_rejects_unsorted_timestamps():
    with pytest.raises(WorkloadError):
        EventTrace(events=((1.0, 0, 16), (0.5, 1, 16)), fps=30, n_frames=2)


@settings(max_examples=30, deadline=None)
@given(fps=st.sampled_from([1.0, 10.0, 30.0, 60.0]),
       n_frames=st.integers(min_value=2, max_value=6))
def test_synth_trace_burst_spacing_matches_period(fps, n_frames):
    model = chain([8, 4], rate=1.0)
    tr = synth_trace(model, n_frames, fps, seed=0)
    stamps = sorted({t for (t, _, _) in tr.events})
    diffs = np.diff(stamps)
    assert np.allclose(diffs, 1.0 / fps)


def test_firing_mask_deterministic_and_rate_bounded():
    l = Layer(id=2, kind="dense", channels=1, height=1, width=5000,
              weights=0, biases=0, is_snn=True, avg_event_rate=0.3)
    m1 = firing_mask(l, frame=7)
    m2 = firing_mask(l, frame=7)
    assert np.array_equal(m1, m2)
    count = int(m1.sum())
    mean = 5000 * 0.3
    sigma = (5000 * 0.3 * 0.7) ** 0.5
    assert abs(count - mean) <= 4 * sigma
    assert firing_mask(l, frame=8).sum() != count or True  # frames differ in general


_MASK64 = (1 << 64) - 1


def reference_firing_mask(layer, frame):
    """The float formula: splitmix64 of the (layer, frame, neuron) key,
    scaled to [0, 1) and compared with the rate."""
    rate, n = layer.avg_event_rate, layer.neurons
    if rate <= 0 or rate >= 1:
        return np.full(n, rate >= 1)
    base = (layer.id * 0x10001 + frame) & _MASK64
    x = ((np.arange(n, dtype=np.uint64) * np.uint64(0x2545F4914F6CDD1D)
          + np.uint64(base)) & np.uint64(_MASK64))
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    x = x ^ (x >> 31)
    return x.astype(np.float64) / float(1 << 64) < rate


_rates = st.one_of(
    st.floats(0.0, 1.0),
    st.integers(1, 70).map(lambda k: 2.0**-k),
    st.integers(1, 60).map(lambda k: 1.0 - 2.0**-k),
    st.floats(1e-300, 1e-12),
    st.floats(0.999999, 1.0, exclude_max=True),
)


@given(rate=_rates, layer_id=st.integers(0, 2**20), width=st.integers(1, 3000),
       frames=st.lists(st.integers(0, 2**31), min_size=1, max_size=4))
# layers that end just before, on and past a block of neurons, and span four
@example(rate=0.3, layer_id=5, width=workload._MASK_BLOCK - 1, frames=[0, 2**31])
@example(rate=0.3, layer_id=5, width=workload._MASK_BLOCK, frames=[0, 2**31])
@example(rate=0.3, layer_id=5, width=workload._MASK_BLOCK + 1, frames=[0, 2**31])
@example(rate=0.7, layer_id=2**20, width=3 * workload._MASK_BLOCK + 17, frames=[1, 7])
@settings(max_examples=150, deadline=None)
def test_firing_masks_match_the_float_formula(rate, layer_id, width, frames):
    layer = Layer(id=layer_id, kind="dense", channels=1, height=1, width=width,
                  weights=0, biases=0, is_snn=True, avg_event_rate=rate)
    masks = list(firing_masks(layer, frames))
    assert len(masks) == len(frames)
    for f, got in zip(frames, masks):
        want = reference_firing_mask(layer, f)
        assert got.dtype == bool and np.array_equal(got, want)
        assert np.array_equal(firing_mask(layer, f), want)


@given(rate=_rates.filter(lambda r: 0 < r < 1))
@settings(max_examples=150, deadline=None)
def test_threshold_is_the_least_draw_at_or_past_the_rate(rate):
    t = workload._threshold(rate)
    assert float(t - 1) < rate * 2.0**64 <= float(t)
    # numpy's uint64 -> float64 conversion rounds as python's does
    edge = np.array([t - 1, t], dtype=np.uint64)
    assert (edge.astype(np.float64) / 2.0**64 < rate).tolist() == [True, False]


def test_firing_mask_pilotnet_layers_match_the_float_formula():
    for layer in pilotnet_like(0.3).layers:
        for f in range(3):
            assert np.array_equal(firing_mask(layer, f),
                                  reference_firing_mask(layer, f))


def test_firing_mask_extremes():
    l0 = Layer(id=0, kind="dense", channels=1, height=1, width=64,
               weights=0, biases=0, is_snn=True, avg_event_rate=0.0)
    l1 = Layer(id=0, kind="dense", channels=1, height=1, width=64,
               weights=0, biases=0, is_snn=True, avg_event_rate=1.0)
    assert not firing_mask(l0, 0).any()
    assert firing_mask(l1, 0).all()


def test_with_rate_replaces_all_layers():
    m = with_rate(pilotnet_like(rate=0.5), 0.01)
    assert all(l.avg_event_rate == 0.01 for l in m.layers)


@pytest.mark.parametrize("section, key, typo", [
    ("network", "fps", "fsp"), ("network", "bw_weights", "bw_weight"),
    ("layer", "rate", "rat"), ("layer", "snn", "spiking"),
])
def test_network_key_that_names_nothing_is_rejected(tmp_path, section, key, typo):
    p = tmp_path / "m.net"
    save_network(chain([4, 2], rate=0.5), p)
    head, sep, tail = p.read_text().partition(f"[{section}]\n")
    p.write_text(head + sep + tail.replace(f"{key} = ", f"{typo} = ", 1))
    with pytest.raises(ConfigFormatError, match=f"m.net: unknown key '{typo}'"):
        load_network(p)


@pytest.mark.parametrize("is_snn, rate", [(True, "nan"), (False, "nan"), (False, "inf")])
def test_non_finite_rate_is_rejected(tmp_path, is_snn, rate):
    # NaN passes both `< 0` and `> 1`, and an ANN layer has no upper bound
    p = tmp_path / "m.net"
    save_network(chain([4, 2], rate=0.5, is_snn=is_snn), p)
    head, sep, tail = p.read_text().partition("rate = 0.5")
    p.write_text(head + f"rate = {rate}" + tail)
    with pytest.raises(WorkloadError,
                       match=f"layer 0: avg_event_rate must be finite and >= 0, got {rate}"):
        load_network(p)
