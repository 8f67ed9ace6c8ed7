"""Tests for guide-type inference — the paper's central algorithm."""

import pytest

from repro.core import types as ty
from repro.core.parser import parse_program
from repro.core.typecheck import check_model_guide_pair, infer_guide_types
from repro.core.typecheck.equality import types_equal_up_to_unfolding
from repro.errors import GuideTypeError, TypeError_



class TestFig5Protocols:
    """The paper's Sec. 2 example: types (3) and (4)."""

    def test_model_latent_protocol_matches_equation_3(self, fig5_model):
        result = infer_guide_types(fig5_model)
        latent = result.entry_channel_type("Model", "latent")
        expected = ty.SendVal(
            ty.PREAL, ty.Choose(ty.End(), ty.SendVal(ty.UREAL, ty.End()))
        )
        assert latent == expected

    def test_model_obs_protocol_matches_equation_4(self, fig5_model):
        result = infer_guide_types(fig5_model)
        obs = result.entry_channel_type("Model", "obs")
        assert obs == ty.SendVal(ty.REAL, ty.End())

    def test_guide_latent_protocol_equals_models(self, fig5_model, fig5_guide):
        model_latent = infer_guide_types(fig5_model).entry_channel_type("Model", "latent")
        guide_latent = infer_guide_types(fig5_guide).entry_channel_type("Guide1", "latent")
        assert model_latent == guide_latent

    def test_signatures_are_registered(self, fig5_model):
        result = infer_guide_types(fig5_model)
        sig = result.table.signature("Model")
        assert sig.consume_channel == "latent"
        assert sig.provide_channel == "obs"

    def test_channel_types_for_unknown_channel_raise(self, fig5_model):
        result = infer_guide_types(fig5_model)
        with pytest.raises(GuideTypeError):
            result.entry_channel_type("Model", "nonexistent")


class TestRecursion:
    """The paper's Sec. 2 recursion example: R[X] = ℝ(0,1) ∧ ((ℝ ∧ X) N R[R[X]])."""

    def test_pcfggen_operator_definition(self, fig6_pcfg):
        result = infer_guide_types(fig6_pcfg)
        typedef = result.table.lookup("PcfgGen.latent")
        x = ty.TyVar(typedef.param)
        expected = ty.SendVal(
            ty.UREAL,
            ty.Choose(
                ty.SendVal(ty.REAL, x),
                ty.OpApp("PcfgGen.latent", ty.OpApp("PcfgGen.latent", x)),
            ),
        )
        assert typedef.body == expected

    def test_pcfg_entry_type(self, fig6_pcfg):
        result = infer_guide_types(fig6_pcfg)
        latent = result.entry_channel_type("Pcfg", "latent")
        assert latent == ty.SendVal(ty.UREAL, ty.OpApp("PcfgGen.latent", ty.End()))

    def test_recursive_guide_matches_recursive_model(self, fig6_pcfg, fig6_pcfg_guide):
        model_result = infer_guide_types(fig6_pcfg)
        guide_result = infer_guide_types(fig6_pcfg_guide)
        assert types_equal_up_to_unfolding(
            model_result.entry_channel_type("Pcfg", "latent"),
            guide_result.entry_channel_type("PcfgGuide", "latent"),
            model_result.table,
            guide_result.table,
        )

    def test_mutually_recursive_procedures(self):
        program = parse_program(
            """
            proc Even() consume latent {
              u <- sample.recv{latent}(Unif);
              if.send{latent} u < 0.5 {
                return(0)
              } else {
                call Odd()
              }
            }
            proc Odd() consume latent {
              u <- sample.recv{latent}(Unif);
              if.send{latent} u < 0.5 {
                return(1)
              } else {
                call Even()
              }
            }
            """
        )
        result = infer_guide_types(program)
        even = result.table.lookup("Even.latent")
        assert isinstance(even.body, ty.SendVal)
        # The else-branch of Even refers to Odd's operator, and vice versa.
        assert "Odd.latent" in str(even.body)


def _sends(count: int, cont: ty.GuideType, payload: ty.BaseType = ty.REAL) -> ty.GuideType:
    for _ in range(count):
        cont = ty.SendVal(payload, cont)
    return cont


def _out_of_step(h_body) -> tuple:
    """``M[X] = R∧R∧M[X]`` against ``G[X] = R∧H[X]``, ``H[X] = h_body(X)``:
    after the first message one side unfolds while the other sends."""
    x = ty.TyVar("X")
    model, guide = ty.TypeTable(), ty.TypeTable()
    model.define(ty.TypeDef("M", "X", _sends(2, ty.OpApp("M", x))))
    guide.define(ty.TypeDef("G", "X", _sends(1, ty.OpApp("H", x))))
    guide.define(ty.TypeDef("H", "X", h_body(x)))
    return ty.OpApp("M", ty.End()), ty.OpApp("G", ty.End()), model, guide


class TestUnfoldingGuard:
    """Only unfoldings count toward the unfolding bound, and every comparison
    ends in an answer or a :class:`GuideTypeError`."""

    def test_non_contractive_operator_raises_guide_type_error(self):
        table = ty.TypeTable()
        table.define(ty.TypeDef("Loop", "X", ty.OpApp("Loop", ty.TyVar("X"))))
        with pytest.raises(GuideTypeError, match="non-contractive"):
            types_equal_up_to_unfolding(
                ty.OpApp("Loop", ty.End()),
                ty.SendVal(ty.REAL, ty.End()),
                table,
                ty.TypeTable(),
            )

    def test_protocols_longer_than_the_unfolding_limit_compare(self):
        long = _sends(5000, ty.End())
        assert types_equal_up_to_unfolding(long, long, ty.TypeTable(), ty.TypeTable())

    def test_out_of_step_protocols_close_their_cycle(self):
        """The pair (R∧M[End], H[End]) comes round again after two messages."""
        pair = _out_of_step(lambda x: _sends(2, ty.OpApp("H", x)))
        assert types_equal_up_to_unfolding(*pair)
        unequal = _out_of_step(lambda x: ty.SendVal(ty.REAL, ty.SendVal(ty.BOOL, ty.OpApp("H", x))))
        assert not types_equal_up_to_unfolding(*unequal)

    def test_out_of_step_growing_arguments_raise_guide_type_error(self):
        """With ``H[X] = R∧R∧H[H[X]]`` no pair repeats; the bound on unfoldings
        rejects the comparison instead of recursing without end."""
        pair = _out_of_step(lambda x: _sends(2, ty.OpApp("H", ty.OpApp("H", x))))
        with pytest.raises(GuideTypeError, match="non-contractive"):
            types_equal_up_to_unfolding(*pair)

    def test_nested_silent_calls_compare(self):
        """Calls to a procedure that never touches the channel nest applications."""
        calls = "".join(f"  c{i} <- call Noop();\n" for i in range(8))
        model = parse_program(
            "proc Noop() consume latent { return(1.0) }\n"
            "proc M() consume latent {\n" + calls
            + "  x <- sample.recv{latent}(Normal(0.0, 1.0));\n  return(x)\n}\n"
        )
        guide = parse_program(
            "proc G() provide latent {\n"
            "  x <- sample.send{latent}(Normal(0.0, 1.0));\n  return(x)\n}\n"
        )
        assert check_model_guide_pair(model, guide, "M", "G").compatible


class TestExample43:
    """Paper Example 4.3: a non-tail call sequence gives T[ℝ ∧ T[1]]."""

    def test_backward_instantiation_of_type_operators(self):
        program = parse_program(
            """
            proc Main(k: ureal) consume latent {
              _ <- call F(k);
              _ <- sample.recv{latent}(Normal(0.0, 1.0));
              _ <- call F(k);
              return()
            }
            proc F(k: ureal) consume latent {
              u <- sample.recv{latent}(Unif);
              return()
            }
            """
        )
        result = infer_guide_types(program)
        main_def = result.table.lookup("Main.latent")
        x = ty.TyVar(main_def.param)
        expected = ty.OpApp("F.latent", ty.SendVal(ty.REAL, ty.OpApp("F.latent", x)))
        assert main_def.body == expected


class TestErrors:
    def test_communication_on_undeclared_channel_rejected(self):
        program = parse_program(
            "proc F() consume latent { sample.recv{other}(Unif) }"
        )
        with pytest.raises(GuideTypeError):
            infer_guide_types(program)

    def test_branch_disagreement_on_other_channel_rejected(self):
        # The two branches of a conditional on `latent` disagree about what
        # happens on `obs`, which rule (TM:Cond) forbids.
        program = parse_program(
            """
            proc F() consume latent provide obs {
              v <- sample.recv{latent}(Unif);
              if.send{latent} v < 0.5 {
                _ <- sample.send{obs}(Normal(0.0, 1.0));
                return(v)
              } else {
                return(v)
              }
            }
            """
        )
        with pytest.raises(GuideTypeError):
            infer_guide_types(program)

    def test_pure_conditional_with_different_latent_sets_rejected(self):
        program = parse_program(
            """
            proc F(flag: bool) consume latent {
              if flag {
                u <- sample.recv{latent}(Unif);
                return(u)
              } else {
                return(0.5)
              }
            }
            """
        )
        with pytest.raises(GuideTypeError):
            infer_guide_types(program)

    def test_non_boolean_predicate_rejected(self):
        program = parse_program(
            """
            proc F() consume latent {
              v <- sample.recv{latent}(Unif);
              if.send{latent} v + 1.0 { return(v) } else { return(v) }
            }
            """
        )
        # The basic checker catches this before guide-type inference proper;
        # both error classes share the TypeError_ parent.
        with pytest.raises(TypeError_):
            infer_guide_types(program)

    def test_call_with_mismatched_channel_role_rejected(self):
        program = parse_program(
            """
            proc Main() provide latent {
              call Helper()
            }
            proc Helper() consume latent {
              sample.recv{latent}(Unif)
            }
            """
        )
        with pytest.raises(GuideTypeError):
            infer_guide_types(program)

    def test_sample_of_non_distribution_rejected(self):
        program = parse_program("proc F() consume latent { sample.recv{latent}(1.0) }")
        with pytest.raises(TypeError_):
            infer_guide_types(program)


class TestModelGuidePairChecking:
    def test_fig5_pair_is_compatible(self, fig5_model, fig5_guide):
        result = check_model_guide_pair(fig5_model, fig5_guide, "Model", "Guide1")
        assert result.compatible
        assert result.reason is None

    def test_unsound_guide1_prime_is_rejected(self, fig5_model):
        # Fig. 3's Guide1': samples @x from a Poisson (support ℕ, not ℝ+).
        guide = parse_program(
            """
            proc Guide1Bad() provide latent {
              v <- sample.send{latent}(Pois(4.0));
              if.recv{latent} {
                return(v)
              } else {
                m <- sample.send{latent}(Unif);
                return(v)
              }
            }
            """
        )
        result = check_model_guide_pair(fig5_model, guide, "Model", "Guide1Bad")
        assert not result.compatible
        assert "disagree" in result.reason

    def test_unsound_guide2_prime_is_rejected(self, fig5_model):
        # Fig. 4's Guide2': samples @x from a Normal (support ℝ, not ℝ+).
        guide = parse_program(
            """
            proc Guide2Bad() provide latent {
              v <- sample.send{latent}(Normal(0.0, 1.0));
              if.recv{latent} {
                return(v)
              } else {
                m <- sample.send{latent}(Unif);
                return(v)
              }
            }
            """
        )
        result = check_model_guide_pair(fig5_model, guide, "Model", "Guide2Bad")
        assert not result.compatible

    def test_guide_missing_branch_sample_is_rejected(self, fig5_model):
        guide = parse_program(
            """
            proc GuideMissing() provide latent {
              v <- sample.send{latent}(Gamma(1.0, 1.0));
              if.recv{latent} {
                return(v)
              } else {
                return(v)
              }
            }
            """
        )
        result = check_model_guide_pair(fig5_model, guide, "Model", "GuideMissing")
        assert not result.compatible

    def test_control_flow_divergence_is_allowed(self):
        """Sec. 2.2: the guide may branch on data as long as the protocol matches."""
        model = parse_program(
            """
            proc Outliers() consume latent provide obs {
              prob_outlier <- sample.recv{latent}(Unif);
              is_outlier <- sample.recv{latent}(Ber(prob_outlier));
              _ <- sample.send{obs}(Normal(0.0, 1.0));
              return(is_outlier)
            }
            """
        )
        guide = parse_program(
            """
            proc OutliersGuide(old_is_outlier: bool) provide latent {
              prob_outlier <- sample.send{latent}(Beta(2.0, 5.0));
              if old_is_outlier {
                is_outlier <- sample.send{latent}(Ber(0.1));
                return(is_outlier)
              } else {
                is_outlier <- sample.send{latent}(Ber(0.9));
                return(is_outlier)
              }
            }
            """
        )
        result = check_model_guide_pair(model, guide, "Outliers", "OutliersGuide")
        assert result.compatible
        expected = ty.SendVal(ty.UREAL, ty.SendVal(ty.BOOL, ty.End()))
        assert result.latent_type_model == expected

    def test_model_must_consume_latent(self, fig5_guide):
        with pytest.raises(GuideTypeError):
            check_model_guide_pair(fig5_guide, fig5_guide, "Guide1", "Guide1")

    def test_guide_must_provide_latent(self, fig5_model):
        with pytest.raises(GuideTypeError):
            check_model_guide_pair(fig5_model, fig5_model, "Model", "Model")

    def test_swapped_sampling_order_is_rejected(self):
        """Our system requires the guide to sample in the model's order (Sec. 6)."""
        model = parse_program(
            """
            proc M() consume latent provide obs {
              a <- sample.recv{latent}(Unif);
              b <- sample.recv{latent}(Normal(0.0, 1.0));
              _ <- sample.send{obs}(Normal(a + b, 1.0));
              return(a)
            }
            """
        )
        guide = parse_program(
            """
            proc G() provide latent {
              b <- sample.send{latent}(Normal(0.0, 1.0));
              a <- sample.send{latent}(Unif);
              return(a)
            }
            """
        )
        result = check_model_guide_pair(model, guide, "M", "G")
        assert not result.compatible
