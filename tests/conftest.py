import numpy as np
import pytest

from cfcql_lab.core import Dataset, DatasetHeader, Tier
from cfcql_lab.envs import ToyMMDP


def pytest_report_header(config):
    """Name numpy and its BLAS: bit-level results depend on the BLAS kernels."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        blas_text = "unknown"
    return f"numpy {np.__version__}, BLAS {blas_text}"


def make_dataset(rows, spec, starts=None, tier=Tier.EXPERT, seed=0):
    """Dataset from (state, joint action, reward, next state, done) rows."""
    if starts is None:
        starts = (0,) if rows else ()
    state_shape = (-1, spec.n_agents) if spec.state_kind == "vector" else (-1,)
    states, actions, rewards, next_states, dones = zip(*rows) if rows else [()] * 5
    header = DatasetHeader(spec=spec, tier=tier, seed=seed, n_trajectories=len(starts))
    return Dataset(
        header,
        states=np.reshape(states, state_shape),
        actions=np.reshape(actions, (-1, spec.n_agents)),
        rewards=rewards,
        next_states=np.reshape(next_states, state_shape),
        dones=dones,
        starts=starts,
    )


def random_toy_dataset(rng, n_agents=2, n_transitions=100, episodes=5):
    """Uniform-random rollout dataset on the toy chain environment."""
    env = ToyMMDP(n_agents)
    rows = []
    starts = []
    per_ep = n_transitions // episodes
    for _ in range(episodes):
        starts.append(len(rows))
        cells = env.reset_batch(rng, 1)[0]
        for t in range(per_ep):
            actions = rng.integers(0, env.n_actions, size=n_agents)
            nxt, reward = env.step_batch(cells[None, :], actions[None, :])
            rows.append((env.encode_batch(cells[None, :])[0], actions, reward[0],
                         env.encode_batch(nxt)[0], t == per_ep - 1))
            cells = nxt[0]
    return make_dataset(rows, env.spec(), starts)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
