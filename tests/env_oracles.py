"""Scripted shortest-path policies for each environment.

These peek at environment internals (they are test oracles, not agents)
and establish that every task is completable within the step cap.
"""

UP, DOWN, LEFT, RIGHT, PICK = 0, 1, 2, 3, 4


def _walk_to(env, target, actions):
    r, c = env.agent
    tr, tc = target
    while r != tr:
        actions.append(DOWN if tr > r else UP)
        r += 1 if tr > r else -1
    while c != tc:
        actions.append(RIGHT if tc > c else LEFT)
        c += 1 if tc > c else -1


def hetero_nav_plan(env) -> list:
    actions = []
    _walk_to(env, env.GOAL, actions)
    return actions


def target_select_plan(env) -> list:
    actions = []
    # cross the audio line (where a real agent would hear the target type)
    _walk_to_col(env.agent, env.LINE_COL, actions)
    target = env.TARGET_1 if env.target_type == 1 else env.TARGET_2
    r, c = env.agent[0], env.LINE_COL
    while r != target[0]:
        actions.append(DOWN if target[0] > r else UP)
        r += 1 if target[0] > r else -1
    while c != target[1]:
        actions.append(RIGHT)
        c += 1
    return actions


def _walk_to_col(pos, col, actions):
    c = pos[1]
    while c != col:
        actions.append(RIGHT if col > c else LEFT)
        c += 1 if col > c else -1


def av_nav_plan(env) -> list:
    actions = []
    r, c = env.agent
    corridor = env.CORRIDOR
    while r != corridor[0]:
        actions.append(DOWN if corridor[0] > r else UP)
        r += 1 if corridor[0] > r else -1
    while c != corridor[1]:
        actions.append(RIGHT)
        c += 1
    goal = env.GOAL
    while c != goal[1]:
        actions.append(RIGHT)
        c += 1
    while r != goal[0]:
        actions.append(DOWN if goal[0] > r else UP)
        r += 1 if goal[0] > r else -1
    return actions


def mining_plan(env) -> list:
    actions = []
    tool = env.TOOL_FOR[env.ore_type]
    home = env.TOOL_HOME[tool]
    pos = list(env.agent)

    def walk(target):
        while pos[0] != target[0]:
            actions.append(DOWN if target[0] > pos[0] else UP)
            pos[0] += 1 if target[0] > pos[0] else -1
        while pos[1] != target[1]:
            actions.append(RIGHT if target[1] > pos[1] else LEFT)
            pos[1] += 1 if target[1] > pos[1] else -1

    walk(home)
    actions.append(PICK)
    # stand diagonal-adjacent to the ore, off the monster's beat
    ore = env.ORE
    spot = (ore[0] - 1, ore[1]) if home[0] <= ore[0] else (ore[0] + 1, ore[1])
    walk(spot)
    actions.append(PICK)
    return actions


PLANS = {
    "hetero_nav": hetero_nav_plan,
    "target_select": target_select_plan,
    "av_nav": av_nav_plan,
    "mining": mining_plan,
    "mining_plus": mining_plan,
}


def run_plan(env, plan) -> tuple:
    """Execute a plan; returns (total_reward, success, steps)."""
    total = 0.0
    for i, a in enumerate(plan):
        _, r, done = env.step(a)
        total += r
        if done:
            return total, env.last_success, i + 1
    return total, env.last_success, len(plan)
