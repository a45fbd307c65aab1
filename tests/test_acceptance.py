"""Go/no-go acceptance suite for the whole package.

Each test verifies one headline guarantee end to end and prints a single
"[acceptance] <name>: PASS/FAIL" line (shown even without -s), so a full
run doubles as a release checklist. Stated runtime budgets are asserted
alongside the substantive conditions.
"""

import json
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import sparse

from rewardroute import (
    FeaturizerConfig,
    Gateway,
    GatewayConfig,
    ModelRegistry,
    ModelSpec,
    StubBackend,
    SubsetScores,
    SyntheticSpec,
    TrainConfig,
    aggregate_tag_rewards,
    beta_ablation,
    entropy_quality_analysis,
    evaluate_systems,
    find_contaminated,
    holdout_split,
    init_router,
    kl_loss,
    kl_objective,
    make_synthetic_benchmark,
    mean_task_rank,
    normalize_rewards,
    reward_entropy,
    route,
    routing_accuracy,
    save_checkpoint,
    save_dataset,
    save_oracle,
    serialize_model,
    stub_response,
    tokenize,
    train,
    uplift_rate,
)
from rewardroute.fixtures import fixture_path

from conftest import TINY_SPEC, make_dataset

SIX_CLUSTERS = {
    "minerals": ["quartz", "basalt", "feldspar", "gypsum", "mica", "olivine", "shale", "granite"],
    "sailing": ["jib", "halyard", "tack", "leeward", "mainsail", "rudder", "keel", "spinnaker"],
    "grammar": ["clause", "gerund", "participle", "adverb", "conjunction", "tense", "plural", "syntax"],
    "baking": ["dough", "yeast", "crumb", "proofing", "gluten", "sourdough", "batter", "crust"],
    "weaving": ["warp", "weft", "loom", "shuttle", "heddle", "selvage", "twill", "bobbin"],
    "chess": ["gambit", "castling", "zugzwang", "endgame", "fianchetto", "tempo", "pawn", "rook"],
}


def _verdict(capsys, name: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        tail = f"  [{detail}]" if detail else ""
        print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}{tail}")


# ---------------------------------------------------------------------------
# 1. numeric core: softmax shift invariance, KL, entropy, analytic gradients
# ---------------------------------------------------------------------------

def _central_difference_grads(weights, bias, x, targets, l2, reverse):
    def loss_at(w, b):
        return kl_objective(w, b, x, targets, l2_penalty=l2, reverse_kl=reverse)[0]

    h = 1e-6
    grad_w = np.zeros_like(weights)
    for i in range(weights.shape[0]):
        for j in range(weights.shape[1]):
            up, dn = weights.copy(), weights.copy()
            up[i, j] += h
            dn[i, j] -= h
            grad_w[i, j] = (loss_at(up, bias) - loss_at(dn, bias)) / (2 * h)
    grad_b = np.zeros_like(bias)
    for i in range(bias.size):
        up, dn = bias.copy(), bias.copy()
        up[i] += h
        dn[i] -= h
        grad_b[i] = (loss_at(weights, up) - loss_at(weights, dn)) / (2 * h)
    return grad_w, grad_b


def test_numeric_core_invariants(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(17)

    max_shift_err = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 9))
        rewards = rng.normal(0.0, 3.0, size=k)
        shift = float(rng.normal(0.0, 50.0))
        diff = np.abs(normalize_rewards(rewards) - normalize_rewards(rewards + shift))
        max_shift_err = max(max_shift_err, float(diff.max()))
    shift_ok = max_shift_err <= 1e-9

    kl_ok = True
    for _ in range(50):
        k = int(rng.integers(2, 7))
        p = normalize_rewards(rng.normal(size=k))
        q = normalize_rewards(rng.normal(size=k))
        kl_ok = kl_ok and kl_loss(q, p) >= 0.0 and kl_loss(p, p) == 0.0

    entropy_ok = True
    for _ in range(50):
        k = int(rng.integers(2, 9))
        h = reward_entropy(normalize_rewards(rng.normal(size=k)))
        entropy_ok = entropy_ok and 0.0 <= h <= np.log(k) + 1e-12

    # analytic vs central-difference gradients on 3 models x 10 features
    k, d, rows = 3, 10, 8
    weights = rng.uniform(-0.5, 0.5, size=(k, d))
    bias = rng.uniform(-0.5, 0.5, size=k)
    x = sparse.csr_matrix(rng.uniform(0.0, 1.0, size=(rows, d)))
    targets = np.apply_along_axis(normalize_rewards, 1, rng.normal(size=(rows, k)))
    max_rel = 0.0
    for l2 in (0.0, 1e-3):
        for reverse in (False, True):
            _, gw, gb = kl_objective(weights, bias, x, targets,
                                     l2_penalty=l2, reverse_kl=reverse)
            fw, fb = _central_difference_grads(weights, bias, x, targets, l2, reverse)
            for analytic, numeric in ((gw, fw), (gb, fb)):
                rel = np.abs(analytic - numeric) / np.maximum(
                    np.abs(analytic) + np.abs(numeric), 1e-8)
                max_rel = max(max_rel, float(rel.max()))
    grad_ok = max_rel < 1e-4

    elapsed = time.perf_counter() - start
    ok = shift_ok and kl_ok and entropy_ok and grad_ok and elapsed < 5.0
    _verdict(capsys, "numeric-core-invariants", ok,
             f"shift err {max_shift_err:.1e}, grad rel err {max_rel:.1e}, {elapsed:.1f}s")
    assert shift_ok, f"softmax shift error {max_shift_err} exceeds 1e-9"
    assert kl_ok, "KL non-negativity or KL(p,p)=0 violated"
    assert entropy_ok, "entropy left [0, ln K]"
    assert grad_ok, f"gradient relative error {max_rel} not below 1e-4"
    assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"


# ---------------------------------------------------------------------------
# 2. oracle selection is a perfect upper bound on any synthetic benchmark
# ---------------------------------------------------------------------------

def test_oracle_selection_is_upper_bound(capsys):
    start = time.perf_counter()
    other_spec = SyntheticSpec(
        num_models=4,
        clusters={t: v for t, v in list(SIX_CLUSTERS.items())[:4]},
        queries_per_cluster=25,
        expertise_margin=0.7,
        noise_sigma=0.5,
        seed=9,
    )
    results = []
    for spec in (TINY_SPEC, other_spec):
        dataset, oracle = make_synthetic_benchmark(spec)
        report = evaluate_systems(dataset, oracle)
        results.append((report.mtr["oracle"], report.uplift["oracle"]))
    elapsed = time.perf_counter() - start
    exact = all(mtr == 1.0 and uplift == 1.0 for mtr, uplift in results)
    ok = exact and elapsed < 5.0
    _verdict(capsys, "oracle-upper-bound", ok,
             f"mtr/uplift {results}, {elapsed:.1f}s")
    assert exact, f"oracle not exactly 1.0: {results}"
    assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"


# ---------------------------------------------------------------------------
# 3. planted expertise is recovered from reward supervision alone
# ---------------------------------------------------------------------------

def test_planted_expertise_recovery(capsys):
    start = time.perf_counter()
    spec = SyntheticSpec.from_file(fixture_path("synthetic_spec.json"))
    dataset, oracle = make_synthetic_benchmark(spec)
    train_ds, eval_ds = holdout_split(dataset)
    table = aggregate_tag_rewards(train_ds)
    model = init_router(dataset.registry, seed=0)
    trained, _ = train(model, train_ds, table, TrainConfig())
    accuracy = routing_accuracy(trained, eval_ds, oracle)

    best_ids = [
        dataset.registry.ids[int(np.argmax(oracle[row.query.id]))]
        for row in eval_ds.rows
    ]
    best_single = max(
        best_ids.count(m) / len(best_ids) for m in dataset.registry.ids
    )
    elapsed = time.perf_counter() - start
    ok = accuracy >= 0.90 and accuracy > best_single and elapsed < 60.0
    _verdict(capsys, "expertise-recovery", ok,
             f"held-out accuracy {accuracy:.3f} vs best single {best_single:.3f}, "
             f"{elapsed:.1f}s")
    assert accuracy >= 0.90, f"held-out accuracy {accuracy:.3f} below 0.90"
    assert accuracy > best_single, (
        f"accuracy {accuracy:.3f} does not beat best single {best_single:.3f}")
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


# ---------------------------------------------------------------------------
# 4. tag means beat raw rewards when reward noise dwarfs the expertise margin
# ---------------------------------------------------------------------------

def test_label_smoothing_beats_raw_rewards_under_noise(capsys):
    start = time.perf_counter()
    spec = SyntheticSpec(
        num_models=6,
        clusters=SIX_CLUSTERS,
        queries_per_cluster=400,
        expertise_margin=0.5,
        noise_sigma=2.0,  # 4x the margin: per-query rewards are mostly noise
        seed=4,
    )
    betas = [0.0, 0.1, 0.3, 0.5, 1.0]
    first = beta_ablation(spec, betas, TrainConfig(seed=4))
    second = beta_ablation(spec, betas, TrainConfig(seed=4))
    accs = dict(zip(first.betas, first.accuracies))

    ends_ok = accs[0.0] > accs[1.0]
    mid_ok = max(accs[0.1], accs[0.3], accs[0.5]) >= max(accs[0.0], accs[1.0])
    deterministic = first.accuracies == second.accuracies
    elapsed = time.perf_counter() - start
    ok = ends_ok and mid_ok and deterministic and elapsed < 300.0
    table = ", ".join(f"{b}:{a:.3f}" for b, a in accs.items())
    _verdict(capsys, "label-smoothing-tradeoff", ok, f"{table}, {elapsed:.0f}s")
    assert ends_ok, f"pure tag means do not beat raw rewards: {table}"
    assert mid_ok, f"no intermediate weight matches the endpoints: {table}"
    assert deterministic, "repeated run produced a different table"
    assert elapsed < 300.0, f"took {elapsed:.0f}s, budget 300s"


# ---------------------------------------------------------------------------
# 5. high reward entropy predicts reward-ranking mistakes
# ---------------------------------------------------------------------------

def test_reward_entropy_predicts_selection_mistakes(capsys):
    start = time.perf_counter()
    spec = SyntheticSpec(
        num_models=4,
        clusters={t: v for t, v in list(SIX_CLUSTERS.items())[:4]},
        queries_per_cluster=500,
        expertise_margin=1.0,
        noise_sigma=1.0,  # noise on par with the margin
        seed=0,
    )
    dataset, oracle = make_synthetic_benchmark(spec)
    analysis = entropy_quality_analysis(dataset, oracle)
    elapsed = time.perf_counter() - start
    ok = (len(dataset) >= 2000 and not analysis.degenerate
          and analysis.correlation < 0.0 and elapsed < 30.0)
    _verdict(capsys, "entropy-predicts-mistakes", ok,
             f"rho {analysis.correlation:.3f} over {len(dataset)} rows, {elapsed:.1f}s")
    assert len(dataset) >= 2000
    assert not analysis.degenerate
    assert analysis.correlation < 0.0, (
        f"expected negative rank correlation, got {analysis.correlation:.3f}")
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


# ---------------------------------------------------------------------------
# 6. decontamination flags exactly what a brute-force window scan flags
# ---------------------------------------------------------------------------

def test_decontamination_matches_brute_force_exactly(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(29)
    vocab = [f"w{i}" for i in range(40)]
    benchmarks = [
        " ".join(rng.choice(vocab, size=int(rng.integers(6, 13))))
        for _ in range(20)
    ]

    rows = []
    for i in range(500):
        words = list(rng.choice(vocab, size=int(rng.integers(4, 20))))
        if i % 5 == 0:  # plant a verbatim benchmark window
            bench = tokenize(benchmarks[int(rng.integers(0, len(benchmarks)))])
            offset = int(rng.integers(0, len(bench) - 6 + 1))
            at = int(rng.integers(0, len(words) + 1))
            words[at:at] = bench[offset:offset + 6]
        rows.append((f"q{i}", " ".join(words), (), [1.0, 2.0, 3.0]))
    dataset = make_dataset(rows)

    flagged = {qid for qid, _ in find_contaminated(dataset, benchmarks)}

    bench_windows = set()
    for text in benchmarks:
        toks = text.split()
        for j in range(len(toks) - 5):
            bench_windows.add(tuple(toks[j:j + 6]))
    truth = set()
    for qid, text, _, _ in rows:
        toks = text.split()
        if any(tuple(toks[j:j + 6]) in bench_windows for j in range(len(toks) - 5)):
            truth.add(qid)

    hits = len(flagged & truth)
    precision = hits / len(flagged) if flagged else 0.0
    recall = hits / len(truth) if truth else 0.0
    elapsed = time.perf_counter() - start
    ok = (bool(truth) and precision == 1.0 and recall == 1.0 and elapsed < 10.0)
    _verdict(capsys, "decontamination-exactness", ok,
             f"precision {precision:.3f} recall {recall:.3f} on "
             f"{len(truth)} contaminated of 500, {elapsed:.1f}s")
    assert truth, "protocol error: nothing was planted"
    assert precision == 1.0 and recall == 1.0, (
        f"flagged {sorted(flagged ^ truth)} disagree with brute force")
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


# ---------------------------------------------------------------------------
# 7. rank metrics agree exactly with a sort-based oracle, ties included
# ---------------------------------------------------------------------------

def test_rank_metrics_match_sort_oracle(capsys):
    rng = np.random.default_rng(77)
    mismatches = 0
    for _ in range(200):
        systems = [f"s{j}" for j in range(int(rng.integers(2, 7)))]
        subsets = []
        for i in range(int(rng.integers(1, 9))):
            # quarter-step scores force frequent ties
            scores = {s: float(rng.integers(0, 5)) / 4.0 for s in systems}
            subsets.append(SubsetScores(subset_name=f"b{i}", scores=scores))
        for s in systems:
            expected_ranks = [
                sorted(sub.scores.values(), reverse=True).index(sub.scores[s]) + 1
                for sub in subsets
            ]
            expected_mtr = sum(expected_ranks) / len(subsets)
            expected_uplift = sum(
                1 for sub in subsets if sub.scores[s] == max(sub.scores.values())
            ) / len(subsets)
            if mean_task_rank(subsets, s) != expected_mtr:
                mismatches += 1
            if uplift_rate(subsets, s) != expected_uplift:
                mismatches += 1
    ok = mismatches == 0
    _verdict(capsys, "rank-metric-equivalence", ok,
             f"{mismatches} mismatches over 200 random tables")
    assert ok, f"{mismatches} rank-metric values differ from the sort oracle"


# ---------------------------------------------------------------------------
# 8. gateway: zero drops, one backend hit per request, offline-equal routing
# ---------------------------------------------------------------------------

def test_gateway_single_inference_and_offline_equivalence(capsys, tmp_path):
    start = time.perf_counter()
    spec = SyntheticSpec(
        num_models=6,
        clusters=SIX_CLUSTERS,
        queries_per_cluster=40,
        expertise_margin=1.0,
        noise_sigma=0.25,
        seed=11,
    )
    dataset, _ = make_synthetic_benchmark(spec)
    table = aggregate_tag_rewards(dataset)
    model = init_router(dataset.registry, FeaturizerConfig(dimension=8192), seed=11)
    trained, _ = train(model, dataset, table, TrainConfig(epochs=8, seed=11))

    rng = np.random.default_rng(123)
    cluster_vocabs = list(SIX_CLUSTERS.values())
    queries = [
        " ".join(rng.choice(cluster_vocabs[i % 6], size=int(rng.integers(5, 10))))
        for i in range(100)
    ]
    expected = [route(trained, q)[0] for q in queries]

    backends = []
    gateway = None
    try:
        backends = [StubBackend(m).start() for m in trained.registry.ids]
        registry = ModelRegistry(models=tuple(
            ModelSpec(model_id=b.model_id, endpoint=b.endpoint) for b in backends
        ))
        ckpt_path = str(tmp_path / "router.ckpt")
        save_checkpoint(trained, ckpt_path)
        gateway = Gateway(GatewayConfig(
            checkpoint_path=ckpt_path, registry=registry, port=0,
        ))
        gateway.start()

        def generate(query):
            req = urllib.request.Request(
                f"{gateway.url}/generate",
                data=json.dumps({"query": query}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(req, timeout=15) as resp:
                return resp.status, json.loads(resp.read())

        with ThreadPoolExecutor(max_workers=100) as pool:
            responses = list(pool.map(generate, queries))
    finally:
        if gateway is not None:
            gateway.shutdown()
        for backend in backends:
            backend.shutdown()

    statuses = [status for status, _ in responses]
    drops = sum(1 for status in statuses if status != 200)
    total_hits = sum(b.hits for b in backends)
    matched = sum(
        1 for (_, body), query, want in zip(responses, queries, expected)
        if body["model_id"] == want
        and body["text"] == stub_response(want, query)
    )
    elapsed = time.perf_counter() - start
    ok = (drops == 0 and total_hits == 100 and matched == 100 and elapsed < 30.0)
    _verdict(capsys, "gateway-single-inference", ok,
             f"drops {drops}, backend hits {total_hits}, offline match "
             f"{matched}/100, {elapsed:.1f}s")
    assert drops == 0, f"{drops} of 100 concurrent requests failed"
    assert total_hits == 100, f"expected exactly 100 backend hits, saw {total_hits}"
    assert matched == 100, f"only {matched}/100 matched offline routing"
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


# ---------------------------------------------------------------------------
# 9. identical seeds give byte-identical checkpoints, datasets, and tables
# ---------------------------------------------------------------------------

def test_bitwise_determinism(capsys, tmp_path):
    start = time.perf_counter()

    def train_once():
        dataset, _ = make_synthetic_benchmark(TINY_SPEC)
        table = aggregate_tag_rewards(dataset)
        model = init_router(dataset.registry, FeaturizerConfig(dimension=4096), seed=3)
        trained, _ = train(model, dataset, table, TrainConfig(epochs=5, seed=3))
        return trained

    ckpt_same = serialize_model(train_once()) == serialize_model(train_once())

    files = {}
    for run in ("a", "b"):
        dataset, oracle = make_synthetic_benchmark(TINY_SPEC)
        data_path = tmp_path / f"{run}.jsonl"
        oracle_path = tmp_path / f"{run}_oracle.jsonl"
        save_dataset(dataset, data_path)
        save_oracle(oracle, dataset.registry, oracle_path)
        files[run] = (data_path.read_bytes(), oracle_path.read_bytes())
    dataset_same = files["a"] == files["b"]

    config = TrainConfig(epochs=3, seed=5)
    table_a = beta_ablation(TINY_SPEC, [0.0, 0.5, 1.0], config)
    table_b = beta_ablation(TINY_SPEC, [0.0, 0.5, 1.0], config)
    ablation_same = (
        table_a.accuracies == table_b.accuracies
        and json.dumps(table_a.to_records()) == json.dumps(table_b.to_records())
    )

    elapsed = time.perf_counter() - start
    ok = ckpt_same and dataset_same and ablation_same
    _verdict(capsys, "bitwise-determinism", ok,
             f"checkpoint {ckpt_same}, dataset {dataset_same}, "
             f"ablation {ablation_same}, {elapsed:.1f}s")
    assert ckpt_same, "identical seeds produced different checkpoint bytes"
    assert dataset_same, "identical seeds produced different dataset files"
    assert ablation_same, "identical seeds produced different ablation tables"
