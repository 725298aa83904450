pthread_mutex_t M = PTHREAD_MUTEX_INITIALIZER;

int main() {
    pthread_mutex_lock(&M);
    pthread_mutex_lock(&M);
    return 0;
}
