"""Golden prompts: the exact chat requests the remote agents send on game24."""

import json

from lookahead.agents.policies import RemotePolicy
from lookahead.agents.scales import GAME24
from lookahead.agents.transport import HttpTransport, ScriptedTransport
from lookahead.agents.values import RemoteValueModel
from lookahead.core import Task
from lookahead.envs.game24 import Game24Env
from lookahead.evaluation import Ledger
from lookahead.search import SearchConfig, greedy_search

POLICY_HEAD = (
    "Use numbers and basic arithmetic operations (+ - * /) to obtain 24. In each "
    "step, you are only allowed to pick two of the remaining numbers and combine "
    "them with one operation to obtain a new number. Propose one next step for the "
    "last puzzle only, and reply with the step on a final line of the form:\n"
    "Action: <number> <op> <number>\n"
    "The following steps are not allowed:\n"
)

VALUE_HEAD = (
    "Evaluate whether the given remaining numbers can reach 24 with the four basic "
    "arithmetic operations. Reason briefly about the promising combinations, then "
    "conclude with exactly one verdict word on the last line: sure, likely, or "
    "impossible. Evaluate the last set of numbers only.\n"
)

ROOT = "4 6 6 8"
AFTER_ONE = ROOT + "\n\nAction: 4 + 6\nObservation: 4 + 6 = 10 (left: 10 6 8)"
AFTER_TWO = AFTER_ONE + "\n\nAction: 10 - 6\nObservation: 10 - 6 = 4 (left: 4 8)"

# (prompt, n) of every request a two-step greedy search sends, in order.  The
# first value reply fails to parse, so the first judgment redraws once.
GOLDEN_REQUESTS = [
    (POLICY_HEAD + "6 * 8\n\n" + ROOT + "\n", 1),
    (VALUE_HEAD + "\n" + AFTER_ONE + "\n", 1),
    (VALUE_HEAD + "\n" + AFTER_ONE + "\n", 1),
    (POLICY_HEAD + "6 * 8\n\n" + AFTER_ONE + "\n", 1),
    (VALUE_HEAD + "\n" + AFTER_TWO + "\n", 1),
]

GOLDEN_LEDGER = {
    "per_task": {
        "g1": {
            "states_expanded": 2,
            "tokens": {
                "policy|m": {"completion": 8, "prompt": 166},
                "value|m": {"completion": 13, "prompt": 196},
            },
        }
    },
    "states_expanded": 2,
    "tokens": {
        "policy|m": {"completion": 8, "prompt": 166},
        "value|m": {"completion": 13, "prompt": 196},
    },
}


REPLIES = [
    "Action: 4 + 6",
    "no verdict here",
    "10 6 8 can work\nlikely",
    "Action: 10 - 6",
    "4 8 cannot\nimpossible",
]


def golden_search(transport, ledger):
    env = Game24Env()
    policy = RemotePolicy(transport, "m", env, ledger=ledger)
    value_model = RemoteValueModel(transport, "m", env, GAME24, ledger=ledger)
    config = SearchConfig(branching=1, max_depth=2, excluded_actions=("6 * 8",))
    return greedy_search(Task(id="g1", instruction=ROOT), env, policy, value_model, config, ledger)


class TestGoldenPrompts:
    def test_remote_agents_send_the_pinned_requests(self):
        transport = ScriptedTransport(REPLIES)
        ledger = Ledger()
        tree = golden_search(transport, ledger)

        sent = [(r.prompt, r.n) for r in transport.requests_seen]
        assert sent == GOLDEN_REQUESTS
        assert {r.model for r in transport.requests_seen} == {"m"}
        assert json.loads(json.dumps(ledger.to_dict())) == GOLDEN_LEDGER
        assert [n.estimate.value for n in tree.nodes[1:]] == [GAME24.labels["likely"], 0.001]

    def test_each_request_posts_one_user_message_at_the_pinned_settings(self):
        posted = []
        replies = iter(REPLIES)

        class Reply:
            status_code = 200
            headers: dict = {}

            def raise_for_status(self):
                pass

            def json(self):
                return {"choices": [{"message": {"content": next(replies)}}]}

        def post(url, **kwargs):
            posted.append(json.dumps(kwargs["json"]))
            return Reply()

        golden_search(HttpTransport("http://example.test", post=post), Ledger())
        assert posted == [
            json.dumps(
                {
                    "model": "m",
                    "messages": [{"role": "user", "content": prompt}],
                    "temperature": 1.0,
                    "max_tokens": 3192,
                    "n": n,
                }
            )
            for prompt, n in GOLDEN_REQUESTS
        ]
