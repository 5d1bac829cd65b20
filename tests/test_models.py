"""Tests for the analytical models (Qiu-Srikant fluid, Yang-de Veciana
service capacity) and their agreement with the simulator."""

import pytest

from repro.models.fluid import FluidModel
from repro.models.service_capacity import minimum_distribution_time


class TestFluidModelBasics:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FluidModel(arrival_rate=-1.0, upload_rate=1.0)
        with pytest.raises(ValueError):
            FluidModel(arrival_rate=1.0, upload_rate=0.0)
        with pytest.raises(ValueError):
            FluidModel(arrival_rate=1.0, upload_rate=1.0, effectiveness=2.0)
        with pytest.raises(ValueError):
            FluidModel(arrival_rate=1.0, upload_rate=1.0, download_rate=0.0)

    def test_completion_flow_upload_limited(self):
        model = FluidModel(arrival_rate=1.0, upload_rate=0.1, download_rate=10.0)
        # 10 leechers, 2 seeds: upload is (10+2)*0.1 = 1.2 << download 100.
        assert model.completion_flow(10.0, 2.0) == pytest.approx(1.2)

    def test_completion_flow_download_limited(self):
        model = FluidModel(arrival_rate=1.0, upload_rate=10.0, download_rate=0.5)
        assert model.completion_flow(10.0, 2.0) == pytest.approx(5.0)

    def test_effectiveness_scales_leecher_contribution(self):
        full = FluidModel(arrival_rate=1.0, upload_rate=0.1, effectiveness=1.0)
        half = FluidModel(arrival_rate=1.0, upload_rate=0.1, effectiveness=0.5)
        assert half.completion_flow(10.0, 0.0) == pytest.approx(
            0.5 * full.completion_flow(10.0, 0.0)
        )

    def test_integration_conserves_nonnegativity(self):
        model = FluidModel(
            arrival_rate=0.5,
            upload_rate=0.01,
            abort_rate=0.001,
            seed_departure_rate=0.02,
        )
        states = model.integrate(duration=500.0, dt=0.5)
        assert all(s.leechers >= 0 and s.seeds >= 0 for s in states)

    @pytest.mark.parametrize("rate", [1 / 600, 0.0])
    def test_a_step_creates_no_peers(self, rate):
        """Regression: with unconstrained download every step that drove
        x below 0 kept the overshoot in y, so ``repro model --arrival-rate
        0.05 --upload 4096 --content 131072`` ended with ~1e12 seeds
        (seed stay 600 s, equilibrium 30) or ~5e13 (seeds never leave)
        after about 100 arrivals."""
        model = FluidModel(
            arrival_rate=0.05, upload_rate=4096 / 131072, seed_departure_rate=rate
        )
        states = model.integrate(duration=2000.0, dt=1.0)
        for state in states:
            assert state.total <= 1.0 + 0.05 * state.time + 1e-9
        if rate:
            assert states[-1].seeds == pytest.approx(
                model.steady_state().seeds, rel=0.05
            )

    def test_stiff_or_negative_rates_refused(self):
        with pytest.raises(ValueError, match="too stiff"):
            FluidModel(
                arrival_rate=0.05, upload_rate=0.03, seed_departure_rate=1000.0
            ).integrate(duration=10.0, dt=1.0)
        with pytest.raises(ValueError, match="too stiff"):
            FluidModel(arrival_rate=0.05, upload_rate=0.03, abort_rate=2.0).integrate(
                duration=10.0, dt=1.0
            )
        with pytest.raises(ValueError):
            FluidModel(arrival_rate=0.05, upload_rate=0.03, seed_departure_rate=-1.0)
        # The instant-departure limit is the open system, not a stiff rate.
        open_system = FluidModel(
            arrival_rate=0.05, upload_rate=0.03, seed_departure_rate=float("inf")
        )
        assert open_system.integrate(duration=10.0, dt=1.0)[-1].seeds == 0.0

    def test_integration_validation(self):
        model = FluidModel(arrival_rate=0.5, upload_rate=0.01)
        with pytest.raises(ValueError):
            model.integrate(duration=0.0)
        with pytest.raises(ValueError):
            model.integrate(duration=10.0, dt=0.0)

    def test_observer_called(self):
        model = FluidModel(arrival_rate=0.5, upload_rate=0.01)
        seen = []
        model.integrate(duration=10.0, dt=1.0, observer=seen.append)
        assert len(seen) == 10


class TestFluidSteadyState:
    def test_trajectory_converges_to_steady_state(self):
        model = FluidModel(
            arrival_rate=0.2,
            upload_rate=0.005,
            seed_departure_rate=0.01,
        )
        equilibrium = model.steady_state()
        assert equilibrium is not None
        states = model.integrate(
            duration=20000.0, dt=1.0, initial_leechers=0.0, initial_seeds=1.0
        )
        final = states[-1]
        assert final.leechers == pytest.approx(equilibrium.leechers, rel=0.05)
        assert final.seeds == pytest.approx(equilibrium.seeds, rel=0.05)

    def test_flow_balance_at_steady_state(self):
        model = FluidModel(
            arrival_rate=0.2,
            upload_rate=0.005,
            abort_rate=0.001,
            seed_departure_rate=0.01,
        )
        equilibrium = model.steady_state()
        dx, dy = model.derivatives(equilibrium.leechers, equilibrium.seeds)
        assert dx == pytest.approx(0.0, abs=1e-9)
        assert dy == pytest.approx(0.0, abs=1e-9)

    def test_no_equilibrium_without_seed_departure(self):
        model = FluidModel(arrival_rate=0.2, upload_rate=0.005)
        assert model.steady_state() is None

    def test_mean_download_time_littles_law(self):
        model = FluidModel(
            arrival_rate=0.2,
            upload_rate=0.005,
            seed_departure_rate=0.01,
        )
        download_time = model.mean_download_time()
        equilibrium = model.steady_state()
        assert download_time == pytest.approx(equilibrium.leechers / model.lam)

    def test_faster_upload_shortens_downloads(self):
        def mean_dl(mu):
            return FluidModel(
                arrival_rate=0.2, upload_rate=mu, seed_departure_rate=0.01
            ).mean_download_time()

        assert mean_dl(0.01) < mean_dl(0.005)

    def test_lower_effectiveness_lengthens_downloads(self):
        def mean_dl(eta):
            return FluidModel(
                arrival_rate=0.2,
                upload_rate=0.005,
                seed_departure_rate=0.01,
                effectiveness=eta,
            ).mean_download_time()

        assert mean_dl(0.5) > mean_dl(1.0)


class TestServiceCapacity:
    def test_minimum_distribution_time_splitting_helps(self):
        """The key improvement of [25]: more pieces, shorter distribution."""
        one_piece = minimum_distribution_time(
            content_size=1000.0, source_upload=10.0, peer_upload=10.0,
            num_peers=64, num_pieces=1,
        )
        many_pieces = minimum_distribution_time(
            content_size=1000.0, source_upload=10.0, peer_upload=10.0,
            num_peers=64, num_pieces=100,
        )
        assert many_pieces < one_piece
        # With many pieces the bound approaches the source time alone.
        assert many_pieces == pytest.approx(100.0 + 6 * 1.0)

    def test_single_peer_no_relay(self):
        bound = minimum_distribution_time(1000.0, 10.0, 10.0, num_peers=1)
        assert bound == pytest.approx(100.0)

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            minimum_distribution_time(0.0, 1.0, 1.0, 1)
        with pytest.raises(ValueError):
            minimum_distribution_time(1.0, 1.0, 1.0, 0)


class TestModelVsSimulation:
    """The paper's §V point: the simulator (local knowledge) performs
    close to the global-knowledge models."""

    def test_transient_capacity_growth_is_superlinear(self):
        """Completions in a flash crowd accelerate like the branching
        model predicts (early inter-completion gaps shrink)."""
        from repro.protocol.metainfo import make_metainfo
        from repro.sim.churn import flash_crowd as crowd
        from repro.sim.config import KIB, PeerConfig, SwarmConfig
        from repro.sim.swarm import Swarm

        metainfo = make_metainfo(
            "model-check", num_pieces=16, piece_size=8 * KIB, block_size=2 * KIB
        )
        swarm = Swarm(metainfo, SwarmConfig(seed=5))
        swarm.add_peer(config=PeerConfig(upload_capacity=8 * KIB), is_seed=True)
        crowd(
            swarm, 24,
            config_factory=lambda rng: PeerConfig(upload_capacity=8 * KIB),
            spread=5.0,
        )
        result = swarm.run(1500)
        completions = sorted(result.completions.values())
        assert len(completions) >= 20
        # Split completions in first/second half: the second half should
        # complete in a much shorter wall-clock span (accelerating).
        half = len(completions) // 2
        first_span = completions[half - 1] - completions[0]
        second_span = completions[-1] - completions[half]
        assert second_span < first_span

    def test_simulation_download_time_within_model_envelope(self):
        """Steady swarm's mean download time sits between the fluid
        model's prediction (global knowledge, eta=1) and a few multiples
        of it."""
        from repro.protocol.metainfo import make_metainfo
        from repro.sim.churn import poisson_arrivals
        from repro.sim.config import KIB, PeerConfig, SwarmConfig
        from repro.sim.swarm import Swarm

        upload = 4 * KIB
        content = 32 * 4 * KIB  # 32 pieces x 4 kiB
        arrival_rate = 0.05
        # Seeds leave quickly (gamma > mu) so the fluid model has an
        # upload-constrained equilibrium; with long-lived seeds the model
        # degenerates (capacity outgrows demand, T -> 0).
        seed_stay = 10.0

        metainfo = make_metainfo(
            "fluid-check", num_pieces=32, piece_size=4 * KIB, block_size=1 * KIB
        )
        swarm = Swarm(metainfo, SwarmConfig(seed=11))
        swarm.add_peer(config=PeerConfig(upload_capacity=upload), is_seed=True)
        poisson_arrivals(
            swarm,
            rate=arrival_rate,
            duration=4000.0,
            config_factory=lambda rng: PeerConfig(
                upload_capacity=upload, seeding_time=seed_stay
            ),
        )
        result = swarm.run(4000.0)
        measured = result.mean_download_time()
        assert measured is not None

        model = FluidModel(
            arrival_rate=arrival_rate,
            upload_rate=upload / content,
            seed_departure_rate=1.0 / seed_stay,
            effectiveness=1.0,
        )
        predicted = model.mean_download_time()
        assert predicted is not None
        # Local knowledge costs something but stays within a small factor
        # of the global-knowledge fluid prediction.
        assert predicted * 0.5 <= measured <= predicted * 4.0
