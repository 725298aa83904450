int zero;
int one = 1;
int neg = -5;

void *helper(void *unused) {
    int local = one + 1;
    zero = local;
    return 0;
}

int main() {
    pthread_t t;
    int before = zero;
    pthread_create(&t, 0, helper, 0);
    pthread_join(t, 0);
    return zero + before;
}
