import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binq import DomainError, ValidationError
from binq.tensor_store import AttentionTensor
from binq.token_pruner import (layer_lambda, prune_decisions, retain_mask,
                               retained_count, validate_scores)


def language_tensor(group_sums, image_scores, layer_index=0):
    sums = np.asarray(group_sums, np.float32)
    img = np.asarray(image_scores, np.float32)
    return AttentionTensor(layer_index=layer_index, group_sums=sums,
                           image_scores=img,
                           group_sizes=(2, img.shape[1], 2, sums.shape[0]))


def vision_tensor(n_tokens, n_img, layer_index=0):
    sums = np.zeros((n_tokens, 4), np.float32)
    sums[:, 1] = 1.0
    img = np.full((n_tokens, n_img), 1.0 / n_img, np.float32)
    return AttentionTensor(layer_index=layer_index, group_sums=sums,
                           image_scores=img, group_sizes=(0, n_img, 0, 0))


class TestValidateScores:
    def test_valid_language_tensor(self):
        t = language_tensor([[0.3, 0.4, 0.2, 0.1]], [[0.1, 0.3]])
        validate_scores(t)

    def test_sum_violation(self):
        t = language_tensor([[0.3, 0.4, 0.2, 0.08]], [[0.1, 0.3]])
        with pytest.raises(ValidationError, match="token 0"):
            validate_scores(t)

    def test_vision_tensor_full_image_attention(self):
        validate_scores(vision_tensor(3, 5))

    def test_vision_tensor_violation(self):
        t = vision_tensor(2, 4)
        t.group_sums[1, 1] = 0.97
        with pytest.raises(ValidationError, match="token 1"):
            validate_scores(t)

    def test_score_out_of_range(self):
        t = language_tensor([[0.3, 0.4, 0.2, 0.1]], [[1.2, -0.8]])
        with pytest.raises(ValidationError):
            validate_scores(t)

    @pytest.mark.parametrize("kind", ["language", "vision"])
    @pytest.mark.parametrize("field", ["image_scores", "group_sums"])
    def test_nan_score_rejected(self, tmp_path, capsys, kind, field):
        from binq import write_attention
        from binq.cli import main
        if kind == "language":
            t = language_tensor([[0.3, 0.4, 0.2, 0.1]] * 3, [[0.1, 0.3]] * 3)
        else:
            t = vision_tensor(3, 2)
        getattr(t, field)[2, 1] = np.nan
        with pytest.raises(ValidationError, match="token 2"):
            validate_scores(t)
        path = tmp_path / "a.bva"
        write_attention([t], path)
        assert main(["prune-scores", str(path), "--ratio", "0.5"]) == 3
        assert "error:" in capsys.readouterr().err


class TestLayerLambda:
    def test_single_token_formula(self):
        t = language_tensor([[0.3, 0.4, 0.2, 0.1]], [[0.1, 0.3]])
        assert layer_lambda(t) == pytest.approx(0.4 / 2, abs=1e-7)

    def test_two_tokens(self):
        t = language_tensor([[0.3, 0.4, 0.2, 0.1], [0.5, 0.2, 0.2, 0.1]],
                            [[0.1, 0.2, 0.1], [0.1, 0.05, 0.05]])
        assert layer_lambda(t) == pytest.approx(0.6 / 3, abs=1e-7)

    def test_uniform_attention(self):
        t = vision_tensor(4, 8)
        assert layer_lambda(t) == pytest.approx(4.0 / 8, abs=1e-7)

    def test_permutation_invariant(self):
        sums = [[0.3, 0.4, 0.2, 0.1], [0.5, 0.2, 0.2, 0.1], [0.1, 0.6, 0.2, 0.1]]
        img = [[0.2, 0.2], [0.1, 0.1], [0.3, 0.3]]
        t1 = language_tensor(sums, img)
        t2 = language_tensor(sums[::-1], img[::-1])
        assert layer_lambda(t1) == pytest.approx(layer_lambda(t2), abs=1e-9)

    def test_no_image_tokens_rejected(self):
        t = AttentionTensor(layer_index=0,
                            group_sums=np.array([[0.5, 0.0, 0.3, 0.2]], np.float32),
                            image_scores=np.zeros((1, 0), np.float32),
                            group_sizes=(1, 0, 1, 1))
        with pytest.raises(DomainError):
            layer_lambda(t)


class TestRetainMask:
    def test_zero_ratio_keeps_all(self):
        assert retain_mask([0.5, 0.1, 0.4], 0.0) == (0, 1, 2)

    def test_spec_example(self):
        assert retain_mask([0.1, 0.5, 0.2, 0.2], 0.75) == (1,)

    def test_tie_break_to_lower_index(self):
        assert retain_mask([0.25, 0.25, 0.25, 0.25], 0.5) == (0, 1)

    def test_minimum_one_token(self):
        assert len(retain_mask([0.9, 0.1], 0.99)) == 1

    def test_nested_topk(self):
        rng = np.random.default_rng(0)
        scores = rng.random(40)
        previous = set(retain_mask(scores, 0.0))
        for ratio in (0.25, 0.5, 0.75, 0.95, 0.99):
            current = set(retain_mask(scores, ratio))
            assert current <= previous
            previous = current

    def test_retained_count_decimal_semantics(self):
        assert retained_count(0.1, 10) == 9
        assert retained_count(0.95, 100) == 5
        assert retained_count(0.75, 4) == 1
        assert retained_count(0.0, 7) == 7


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.999), st.integers(1, 10_000))
def test_retained_count_formula(ratio, n_img):
    count = retained_count(ratio, n_img)
    expected = max(1, math.ceil(round((1.0 - ratio) * n_img, 9)))
    assert count == expected
    assert 1 <= count <= n_img


class TestPruneDecisions:
    def test_start_layer_filter(self):
        tensors = [vision_tensor(2, 4, layer_index=j) for j in range(5)]
        decisions = prune_decisions(tensors, 0.5, start_layer=3)
        assert [d.layer_index for d in decisions] == [3, 4]

    @pytest.mark.parametrize("ratio", [1.5, 7.0, -0.1, float("nan")])
    def test_ratio_checked_when_no_layer_is_decided(self, tmp_path, capsys, ratio):
        from binq import write_attention
        from binq.cli import main
        tensors = [vision_tensor(2, 4, layer_index=j) for j in range(3)]
        for layers, start in ((tensors, 5), ([], 0)):
            with pytest.raises(DomainError, match="prune ratio"):
                prune_decisions(layers, ratio, start_layer=start)
            path = tmp_path / "a.bva"
            write_attention(layers, path)
            assert main(["prune-scores", str(path), "--ratio", str(ratio),
                         "--start-layer", str(start)]) == 3
            assert "prune ratio" in capsys.readouterr().err

    def test_lambda_and_retained_populated(self):
        t = language_tensor([[0.3, 0.4, 0.2, 0.1]], [[0.1, 0.3]], layer_index=7)
        (d,) = prune_decisions([t], 0.5)
        assert d.layer_index == 7
        assert d.lambda_img == pytest.approx(0.2, abs=1e-7)
        assert d.retained == (1,)
